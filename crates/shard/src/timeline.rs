//! Shared failure timeline: one connectivity history for all objects.
//!
//! The §5.2 site/link renewal processes are independent of the access
//! workload, so a run over `N` objects needs the network sample path
//! exactly once. [`FailureTimeline::build`] replays the failure stream
//! through the calendar event queue and the incremental component
//! kernel, cutting simulated time into **epochs** (maximal intervals
//! with constant partition structure) and precomputing, per epoch, a
//! per-assignment × per-site grant bitmask: "would a read (bit 0) /
//! write (bit 1) submitted at site `s` for an object under assignment
//! profile `a` be granted?". Profiles sharing a vote table share the
//! per-component vote sums, so adding optimizer-expanded per-object
//! assignments costs one mask row per *distinct* spec, not per object.
//!
//! After that, serving a quorum check for any access is one byte load —
//! the million-object access loops never touch the graph code. Epoch
//! membership itself is served by a **bucket index** over `[0,
//! horizon)`: `bucket_floor[b]` holds the first epoch overlapping
//! bucket `b`, so [`FailureTimeline::epoch_at`] is a bounded scan of
//! the (≈ 0.25 with 4× oversampling) epochs per bucket instead of a
//! walk over every epoch boundary since the object's previous access.

use crate::catalog::ObjectCatalog;
use quorum_core::protocol::Access;
use quorum_des::{CalendarQueue, SimParams};
use quorum_graph::{ComponentCache, ComponentView, NetworkState, Topology, TopologyEvent};
use quorum_replica::FailureProcesses;
use quorum_stats::rng::{derive_seed, rng_from_seed};

/// Read-granted bit in a grant mask.
pub const READ_BIT: u8 = 1;
/// Write-granted bit in a grant mask.
pub const WRITE_BIT: u8 = 2;

/// Epoch-index buckets per epoch (oversampling factor of the bucket
/// index; higher = shorter scans, more memory).
const BUCKETS_PER_EPOCH: usize = 4;

/// One failure/repair event in the timeline replay.
enum TimelineEvent {
    Site(usize),
    Link(usize),
}

/// The materialized connectivity history of one run.
#[derive(Debug, Clone)]
pub struct FailureTimeline {
    /// Exclusive end time of each epoch; the last entry is the horizon.
    epoch_end: Vec<f64>,
    /// Grant masks, indexed `[(epoch * assignments + assignment) * sites
    /// + site]`.
    grants: Vec<u8>,
    sites: usize,
    /// Assignment profiles per epoch (the catalog's `num_assignments`).
    assignments: usize,
    horizon: f64,
    /// First epoch overlapping each time bucket of `[0, horizon)`.
    bucket_floor: Vec<u32>,
    /// Buckets per unit time (`bucket_floor.len() / horizon`).
    bucket_scale: f64,
    site_transitions: u64,
    link_transitions: u64,
}

impl FailureTimeline {
    /// Replays the failure stream for `[0, horizon)` and precomputes the
    /// per-epoch grant tables and the epoch bucket index.
    ///
    /// The failure RNG stream is `derive_seed(seed, 1)` — the same
    /// master/stream split the per-object access walks use (they draw
    /// from stream 2), so one `seed` fixes the whole run. The failure
    /// replay keeps `StdRng`: it runs once per run, off the access hot
    /// path the counter-based streams exist for.
    ///
    /// # Panics
    /// Panics if `horizon` is not positive and finite.
    pub fn build(
        topology: &Topology,
        catalog: &ObjectCatalog,
        params: &SimParams,
        horizon: f64,
        seed: u64,
    ) -> Self {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be positive and finite"
        );
        let n = topology.num_sites();
        let m = topology.num_links();
        let uniform = vec![1u64; n];
        let mut rng = rng_from_seed(derive_seed(seed, 1));
        let mut procs = FailureProcesses::new(params, n, m, None, None);
        let mut queue: CalendarQueue<TimelineEvent> = CalendarQueue::new();
        procs.schedule_initial(
            &mut queue,
            &mut rng,
            TimelineEvent::Site,
            TimelineEvent::Link,
        );
        let mut state = NetworkState::all_up(topology);
        let mut cache = ComponentCache::new();

        let mut out = Self {
            epoch_end: Vec::new(),
            grants: Vec::new(),
            sites: n,
            assignments: catalog.num_assignments(),
            horizon,
            bucket_floor: Vec::new(),
            bucket_scale: 0.0,
            site_transitions: 0,
            link_transitions: 0,
        };

        loop {
            let t = match queue.peek_time() {
                Some(t) if t.as_f64() < horizon => t,
                _ => break,
            };
            // The epoch ending at `t` ran under the current state.
            out.push_epoch(
                t.as_f64(),
                catalog,
                &state,
                cache.view(topology, &state, &uniform),
            );
            // Apply every event at exactly `t` before cutting the next
            // epoch, so simultaneous transitions produce one epoch, not
            // a stack of zero-length ones.
            while queue.peek_time().map(SimTimeBits::bits) == Some(t.bits()) {
                let (_, ev) = queue.pop().expect("peeked");
                match ev {
                    TimelineEvent::Site(i) => {
                        out.site_transitions += 1;
                        let (up, gap) = procs.site_transition(i, &mut rng);
                        if state.set_site(i, up) {
                            cache.apply_event(
                                topology,
                                &state,
                                &uniform,
                                TopologyEvent::Site { site: i, up },
                            );
                        }
                        queue.schedule_in(gap, TimelineEvent::Site(i));
                    }
                    TimelineEvent::Link(i) => {
                        out.link_transitions += 1;
                        let (up, gap) = procs.link_transition(i, &mut rng);
                        if state.set_link(i, up) {
                            cache.apply_event(
                                topology,
                                &state,
                                &uniform,
                                TopologyEvent::Link { link: i, up },
                            );
                        }
                        queue.schedule_in(gap, TimelineEvent::Link(i));
                    }
                }
            }
        }
        // Final epoch: from the last transition to the horizon.
        out.push_epoch(
            horizon,
            catalog,
            &state,
            cache.view(topology, &state, &uniform),
        );
        out.build_bucket_index();
        out
    }

    /// Records the grant table of the epoch ending at `end`.
    fn push_epoch(
        &mut self,
        end: f64,
        catalog: &ObjectCatalog,
        state: &NetworkState,
        view: &ComponentView,
    ) {
        self.epoch_end.push(end);
        let comps = view.num_components();
        let tables = catalog.vote_tables();
        // Per-component vote sums, once per distinct vote table:
        // `comp_votes[table * comps + component]`.
        let mut comp_votes = vec![0u64; tables.len() * comps];
        for s in 0..self.sites {
            let c = view.component_of(s);
            if c != ComponentView::DOWN {
                for (ti, table) in tables.iter().enumerate() {
                    comp_votes[ti * comps + c as usize] += table.votes_of(s);
                }
            }
        }
        for profile in catalog.profiles() {
            let votes = &comp_votes[profile.votes_key * comps..][..comps];
            for s in 0..self.sites {
                let c = view.component_of(s);
                let mask = if c == ComponentView::DOWN || !state.site_up(s) {
                    0
                } else {
                    let v = votes[c as usize];
                    u8::from(profile.spec.read_granted(v))
                        | (u8::from(profile.spec.write_granted(v)) << 1)
                };
                self.grants.push(mask);
            }
        }
    }

    /// Builds the epoch bucket index: `bucket_floor[b]` = the first
    /// epoch whose end lies past bucket `b`'s start, i.e. the epoch any
    /// time in the bucket can belong to at the earliest.
    fn build_bucket_index(&mut self) {
        let buckets = (self.epoch_end.len() * BUCKETS_PER_EPOCH).max(1);
        self.bucket_scale = buckets as f64 / self.horizon;
        self.bucket_floor = Vec::with_capacity(buckets);
        let mut e = 0usize;
        for b in 0..buckets {
            let start = b as f64 / self.bucket_scale;
            // epoch_end is strictly increasing and ends at `horizon`,
            // which every bucket start is strictly below.
            while self.epoch_end[e] <= start {
                e += 1;
            }
            self.bucket_floor.push(e as u32);
        }
    }

    /// The epoch containing time `t ∈ [0, horizon)`.
    ///
    /// `hint` is a lower bound on the answer (pass the object's previous
    /// epoch, or 0); the scan starts at the larger of the hint and the
    /// bucket floor, so lookups cost O(epochs-per-bucket), not
    /// O(epochs-since-last-access).
    #[inline]
    pub fn epoch_at(&self, t: f64, hint: usize) -> usize {
        debug_assert!(t >= 0.0 && t < self.horizon);
        let b = ((t * self.bucket_scale) as usize).min(self.bucket_floor.len() - 1);
        let mut e = (self.bucket_floor[b] as usize).max(hint);
        while self.epoch_end[e] <= t {
            e += 1;
        }
        e
    }

    /// Number of connectivity epochs (≥ 1; at least the all-up one).
    pub fn num_epochs(&self) -> usize {
        self.epoch_end.len()
    }

    /// Exclusive end times of the epochs (last entry = horizon).
    pub fn epoch_ends(&self) -> &[f64] {
        &self.epoch_end
    }

    /// Assignment profiles per epoch (grant rows).
    pub fn num_assignments(&self) -> usize {
        self.assignments
    }

    /// The run horizon the timeline was built for.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Raw grant mask for (`epoch`, `assignment`, `site`):
    /// [`READ_BIT`] | [`WRITE_BIT`].
    #[inline]
    pub fn grant_mask(&self, epoch: usize, assignment: usize, site: usize) -> u8 {
        self.grants[(epoch * self.assignments + assignment) * self.sites + site]
    }

    /// Whether an access of `kind` submitted at `site` during `epoch` is
    /// granted for an object under assignment profile `assignment`.
    #[inline]
    pub fn granted(&self, epoch: usize, assignment: usize, site: usize, kind: Access) -> bool {
        let mask = self.grant_mask(epoch, assignment, site);
        match kind {
            Access::Read => mask & READ_BIT != 0,
            Access::Write => mask & WRITE_BIT != 0,
        }
    }

    /// Site up/down transitions applied before the horizon.
    pub fn site_transitions(&self) -> u64 {
        self.site_transitions
    }

    /// Link up/down transitions applied before the horizon.
    pub fn link_transitions(&self) -> u64 {
        self.link_transitions
    }

    /// Publishes timeline totals into an observability registry.
    pub fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(
            quorum_obs::keys::DES_SITE_TRANSITIONS,
            self.site_transitions,
        );
        registry.add(
            quorum_obs::keys::DES_LINK_TRANSITIONS,
            self.link_transitions,
        );
        registry.add(quorum_obs::keys::SHARD_EPOCHS, self.num_epochs() as u64);
        registry.add(quorum_obs::keys::SHARD_ASSIGNMENTS, self.assignments as u64);
    }
}

/// Total-order bit view of a [`quorum_des::SimTime`] for exact
/// same-timestamp grouping without a float `==` (timestamps compared
/// here are copies of one another, so bit equality is the intent).
trait SimTimeBits {
    fn bits(self) -> u64;
}

impl SimTimeBits for quorum_des::SimTime {
    fn bits(self) -> u64 {
        self.as_f64().to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_timeline(horizon: f64, seed: u64) -> (Topology, ObjectCatalog, FailureTimeline) {
        let t = Topology::ring_with_chords(13, 3);
        let c = ObjectCatalog::paper_mix(13, 10);
        let params = SimParams::quick();
        let tl = FailureTimeline::build(&t, &c, &params, horizon, seed);
        (t, c, tl)
    }

    #[test]
    fn epochs_are_monotone_and_end_at_horizon() {
        let (_, _, tl) = quick_timeline(400.0, 11);
        let ends = tl.epoch_ends();
        assert!(!ends.is_empty());
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ends.last().copied(), Some(400.0));
        assert!(
            tl.num_epochs() > 1,
            "μ_f = 128 over 400 time units should produce transitions"
        );
        // Epoch count can be below transitions+1 (simultaneous events
        // coalesce into one boundary), never above.
        assert!(tl.num_epochs() as u64 <= tl.site_transitions() + tl.link_transitions() + 1);
    }

    #[test]
    fn all_up_epoch_grants_everything_the_specs_allow() {
        // Horizon far below μ_f with a fixed seed that schedules no
        // transition before it: the single epoch is the all-up network.
        let (_, c, tl) = quick_timeline(0.001, 11);
        assert_eq!(tl.num_epochs(), 1);
        assert_eq!(tl.num_assignments(), c.num_assignments());
        for (a, profile) in c.profiles().iter().enumerate() {
            for s in 0..13 {
                assert!(
                    tl.granted(0, a, s, Access::Read),
                    "profile {} read at site {s}",
                    profile.name
                );
                assert!(
                    tl.granted(0, a, s, Access::Write),
                    "profile {} write at site {s}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn grants_degrade_under_failures() {
        // Long horizon: some epoch must deny some write somewhere
        // (96 % per-component reliability over 13 sites + 39 links).
        let (_, c, tl) = quick_timeline(2000.0, 7);
        let mut denied = 0u64;
        for e in 0..tl.num_epochs() {
            for a in 0..c.num_assignments() {
                for s in 0..13 {
                    if !tl.granted(e, a, s, Access::Write) {
                        denied += 1;
                    }
                }
            }
        }
        assert!(
            denied > 0,
            "no write ever denied across {} epochs",
            tl.num_epochs()
        );
    }

    #[test]
    fn rowa_reads_survive_any_up_site() {
        // Read-one/write-all grants a read at every up site regardless
        // of partitioning: check it against a long, failure-rich run.
        let (t, c, tl) = quick_timeline(2000.0, 3);
        let rowa = 4;
        assert_eq!(c.profiles()[rowa].name, "rowa");
        let mut up_site_reads = 0u64;
        for e in 0..tl.num_epochs() {
            for s in 0..t.num_sites() {
                // A denied rowa read means the site was down (mask 0).
                if tl.granted(e, rowa, s, Access::Read) {
                    up_site_reads += 1;
                    assert!(
                        !tl.granted(e, rowa, s, Access::Write)
                            || (0..t.num_sites()).all(|x| tl.granted(e, rowa, x, Access::Read)),
                        "rowa write granted while some site is unreachable"
                    );
                }
            }
        }
        assert!(up_site_reads > 0);
    }

    #[test]
    fn build_is_deterministic() {
        let (_, _, a) = quick_timeline(500.0, 21);
        let (_, _, b) = quick_timeline(500.0, 21);
        assert_eq!(a.epoch_ends().len(), b.epoch_ends().len());
        assert!(a
            .epoch_ends()
            .iter()
            .zip(b.epoch_ends())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.grants, b.grants);
        assert_eq!(a.site_transitions(), b.site_transitions());
        assert_eq!(a.link_transitions(), b.link_transitions());
    }

    #[test]
    fn epoch_at_agrees_with_linear_scan() {
        let (_, _, tl) = quick_timeline(800.0, 17);
        assert!(tl.num_epochs() > 3, "want a multi-epoch fixture");
        let ends = tl.epoch_ends();
        // Probe a dense grid plus the exact boundary neighborhoods.
        let mut probes: Vec<f64> = (0..4000).map(|i| 800.0 * i as f64 / 4000.0).collect();
        for &end in ends.iter().take(ends.len() - 1) {
            probes.push(end - 1e-9);
            probes.push(end);
            probes.push(end + 1e-9);
        }
        let mut hint = 0usize;
        let mut sorted = probes.clone();
        sorted.sort_by(f64::total_cmp);
        for &t in &sorted {
            if !(0.0..800.0).contains(&t) {
                continue;
            }
            let linear = ends.iter().position(|&e| e > t).expect("t < horizon");
            assert_eq!(tl.epoch_at(t, 0), linear, "cold lookup at t={t}");
            assert_eq!(tl.epoch_at(t, hint), linear, "hinted lookup at t={t}");
            hint = linear;
        }
    }

    #[test]
    fn grant_mask_matches_granted_bits() {
        let (_, c, tl) = quick_timeline(1000.0, 9);
        for e in 0..tl.num_epochs() {
            for a in 0..c.num_assignments() {
                for s in 0..13 {
                    let mask = tl.grant_mask(e, a, s);
                    assert_eq!(mask & READ_BIT != 0, tl.granted(e, a, s, Access::Read));
                    assert_eq!(mask & WRITE_BIT != 0, tl.granted(e, a, s, Access::Write));
                    assert_eq!(mask & !(READ_BIT | WRITE_BIT), 0, "only two bits defined");
                }
            }
        }
    }

    #[test]
    fn optimized_catalog_gets_per_assignment_grant_rows() {
        let t = Topology::ring_with_chords(13, 3);
        let density = quorum_core::analytic::ring_density(13, 0.96, 0.96);
        let c = ObjectCatalog::paper_mix(13, 50).with_optimized_assignments(&density, 5, 0.2);
        assert!(c.num_assignments() > c.num_classes());
        let tl = FailureTimeline::build(&t, &c, &SimParams::quick(), 600.0, 5);
        assert_eq!(tl.num_assignments(), c.num_assignments());
        // Every profile's all-up row grants reads at every site (q_r is
        // always reachable with the full network up).
        for a in 0..c.num_assignments() {
            for s in 0..13 {
                assert!(tl.granted(0, a, s, Access::Read), "profile {a} site {s}");
            }
        }
    }

    #[test]
    fn observe_publishes_epochs_and_transitions() {
        let (_, c, tl) = quick_timeline(400.0, 11);
        let reg = quorum_obs::Registry::new();
        tl.observe_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(quorum_obs::keys::SHARD_EPOCHS),
            tl.num_epochs() as u64
        );
        assert_eq!(
            snap.counter(quorum_obs::keys::SHARD_ASSIGNMENTS),
            c.num_assignments() as u64
        );
        assert_eq!(
            snap.counter(quorum_obs::keys::DES_SITE_TRANSITIONS),
            tl.site_transitions()
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let t = Topology::ring(4);
        let c = ObjectCatalog::paper_mix(4, 1);
        FailureTimeline::build(&t, &c, &SimParams::quick(), 0.0, 1);
    }
}
