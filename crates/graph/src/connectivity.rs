//! Component labelling over the up-subgraph.
//!
//! A *component* (paper §2.2) is a maximal set of operational sites that can
//! communicate through operational links. [`ComponentView`] labels every up
//! site with a component id and totals the votes per component — precisely
//! the `v` in the paper's density `f_i(v)`. Down sites are "members of a
//! component of size zero" (§5.2), represented here by [`ComponentView::DOWN`].
//!
//! [`ComponentCache`] adds the memoization the engines use: accesses
//! between two topology events see the same partition, and the
//! incremental [`DeltaConnectivity`] kernel absorbs each event, so a view
//! is only re-materialized when a failure/recovery actually intervened.

use crate::bitset::BitSet;
use crate::delta::{DeltaConnectivity, DeltaCounters, DeltaOutcome, TopologyEvent};
use crate::state::NetworkState;
use crate::topology::Topology;

/// A snapshot of the network's partition into components.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentView {
    /// Component id per site; [`ComponentView::DOWN`] for down sites.
    comp_id: Vec<u32>,
    /// Total votes per component id.
    comp_votes: Vec<u64>,
    /// Number of up sites per component id.
    comp_sizes: Vec<u32>,
    /// Member bitset per component id — built once at compute time so
    /// membership reads are O(words) with no per-access allocation.
    members: Vec<BitSet>,
}

impl ComponentView {
    /// Marker id for non-operational sites.
    pub const DOWN: u32 = u32::MAX;

    /// Computes the partition of `topology` under `state`, weighting each
    /// site by `votes[site]`.
    ///
    /// # Panics
    /// Panics if `votes.len()` differs from the site count.
    pub fn compute(topology: &Topology, state: &NetworkState, votes: &[u64]) -> Self {
        let n = topology.num_sites();
        assert_eq!(votes.len(), n, "one vote weight per site");
        let mut comp_id = vec![Self::DOWN; n];
        let mut comp_votes = Vec::new();
        let mut comp_sizes = Vec::new();
        let mut members = Vec::new();
        let mut queue = Vec::with_capacity(n);
        for start in 0..n {
            if !state.site_up(start) || comp_id[start] != Self::DOWN {
                continue;
            }
            let id = comp_votes.len() as u32;
            comp_votes.push(0u64);
            comp_sizes.push(0u32);
            members.push(BitSet::new(n));
            comp_id[start] = id;
            queue.clear();
            queue.push(start);
            while let Some(s) = queue.pop() {
                comp_votes[id as usize] += votes[s];
                comp_sizes[id as usize] += 1;
                members[id as usize].set(s, true);
                for &(nb, link) in topology.neighbors(s) {
                    if state.link_up(link) && state.site_up(nb) && comp_id[nb] == Self::DOWN {
                        comp_id[nb] = id;
                        queue.push(nb);
                    }
                }
            }
        }
        Self {
            comp_id,
            comp_votes,
            comp_sizes,
            members,
        }
    }

    /// Assembles a view from precomputed parts (the incremental kernel's
    /// canonical materialization).
    pub(crate) fn from_parts(
        comp_id: Vec<u32>,
        comp_votes: Vec<u64>,
        comp_sizes: Vec<u32>,
        members: Vec<BitSet>,
    ) -> Self {
        Self {
            comp_id,
            comp_votes,
            comp_sizes,
            members,
        }
    }

    /// Component id of `site`, or [`Self::DOWN`].
    #[inline]
    pub fn component_of(&self, site: usize) -> u32 {
        self.comp_id[site]
    }

    /// Votes reachable from `site` (0 if the site is down — the paper's
    /// "component of size zero" convention).
    #[inline]
    pub fn votes_of(&self, site: usize) -> u64 {
        match self.comp_id[site] {
            Self::DOWN => 0,
            id => self.comp_votes[id as usize],
        }
    }

    /// Number of up sites in the component containing `site` (0 if down).
    #[inline]
    pub fn size_of(&self, site: usize) -> u32 {
        match self.comp_id[site] {
            Self::DOWN => 0,
            id => self.comp_sizes[id as usize],
        }
    }

    /// Number of components (down sites excluded).
    pub fn num_components(&self) -> usize {
        self.comp_votes.len()
    }

    /// Vote totals per component.
    pub fn component_votes(&self) -> &[u64] {
        &self.comp_votes
    }

    /// Up-site counts per component.
    pub fn component_sizes(&self) -> &[u32] {
        &self.comp_sizes
    }

    /// Maximum votes held by any component (0 if every site is down).
    ///
    /// This is the quantity behind the SURV metric (§3, footnote 3).
    pub fn largest_component_votes(&self) -> u64 {
        self.comp_votes.iter().copied().max().unwrap_or(0)
    }

    /// True if `a` and `b` are both up and mutually reachable.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.comp_id[a] != Self::DOWN && self.comp_id[a] == self.comp_id[b]
    }

    /// Member lists of every component, indexed by component id.
    ///
    /// Allocates; access paths should prefer [`Self::member_bits`] or
    /// [`Self::members_of_component`].
    pub fn all_components(&self) -> Vec<Vec<usize>> {
        self.members
            .iter()
            .map(|bits| bits.iter_ones().collect())
            .collect()
    }

    /// Member bitset of component `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range (including [`Self::DOWN`]).
    pub fn member_bits(&self, id: u32) -> &BitSet {
        &self.members[id as usize]
    }

    /// Iterates over the up sites of component `id` in ascending order.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn members_of_component(&self, id: u32) -> impl Iterator<Item = usize> + '_ {
        self.members[id as usize].iter_ones()
    }

    /// Members of `site`'s component as a single `u64` site mask
    /// (bit `i` set ⇔ site `i` in the component); `0` when `site` is
    /// down. This is the constant-time handoff to the quorum-algebra
    /// layer, whose general-coterie grant checks are mask containment.
    ///
    /// # Panics
    /// Panics if the universe exceeds 64 sites.
    #[inline]
    pub fn member_mask(&self, site: usize) -> u64 {
        match self.comp_id[site] {
            Self::DOWN => 0,
            id => self.members[id as usize].as_u64_mask(),
        }
    }

    /// Iterates over the up sites in the same component as `site`
    /// (including `site` itself); empty if `site` is down. O(words) via
    /// the per-component member index.
    pub fn members_of(&self, site: usize) -> impl Iterator<Item = usize> + '_ {
        let id = self.comp_id[site];
        let bits = (id != Self::DOWN).then(|| &self.members[id as usize]);
        bits.into_iter().flat_map(|b| b.iter_ones())
    }
}

/// Memoized [`ComponentView`] maintained by the incremental
/// [`DeltaConnectivity`] kernel.
///
/// The engines call [`ComponentCache::apply_event`] on every topology
/// event and [`ComponentCache::view`] on every access; a view is only
/// re-materialized when at least one event separated two accesses. The
/// refresh is never a whole-graph BFS: recoveries merge components
/// (union-find), failures re-scan one component, and provably
/// partition-preserving events are filtered outright. Every served view
/// is bit-identical to a fresh [`ComponentView::compute`], the oracle the
/// kernel's tests check against.
#[derive(Debug, Clone, Default)]
pub struct ComponentCache {
    view: Option<ComponentView>,
    kernel: Option<DeltaConnectivity>,
    recomputations: u64,
    hits: u64,
    delta: DeltaCounters,
}

impl ComponentCache {
    /// An empty cache; the kernel is built from the state on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one topology event, called after
    /// `NetworkState::set_site`/`set_link` reported an actual change
    /// (with `state` already reflecting the event).
    ///
    /// The kernel absorbs the event incrementally — or, if no kernel is
    /// built yet, is built from `state` (counted as a full recompute, so
    /// every event lands in exactly one delta counter).
    pub fn apply_event(
        &mut self,
        topology: &Topology,
        state: &NetworkState,
        votes: &[u64],
        event: TopologyEvent,
    ) {
        self.view = None;
        match &mut self.kernel {
            Some(kernel) => match kernel.apply(event) {
                DeltaOutcome::Merge => self.delta.merges += 1,
                DeltaOutcome::Rescan => self.delta.rescans += 1,
                DeltaOutcome::Noop => self.delta.noops += 1,
            },
            None => {
                // `state` already includes the event, so building from it
                // absorbs the event wholesale.
                self.kernel = Some(DeltaConnectivity::new(topology, state, votes));
                self.delta.full_recomputes += 1;
            }
        }
    }

    /// Returns the current view, refreshing if stale.
    pub fn view(
        &mut self,
        topology: &Topology,
        state: &NetworkState,
        votes: &[u64],
    ) -> &ComponentView {
        if self.view.is_none() {
            let kernel = self
                .kernel
                .get_or_insert_with(|| DeltaConnectivity::new(topology, state, votes));
            debug_assert!(kernel.in_sync_with(state), "kernel missed an event");
            self.view = Some(kernel.to_view());
            self.recomputations += 1;
        } else {
            self.hits += 1;
        }
        self.view.as_ref().expect("just ensured")
    }

    /// Number of view refreshes performed (canonical re-materializations
    /// of the kernel's partition).
    pub fn recomputations(&self) -> u64 {
        self.recomputations
    }

    /// Number of served-from-cache queries.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime fast-path totals of the kernel.
    pub fn delta_counters(&self) -> DeltaCounters {
        self.delta
    }

    /// Records the cache's lifetime hit/recompute totals and the kernel
    /// fast-path counters into an observability registry under the
    /// [`quorum_obs::keys`] names.
    pub fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(quorum_obs::keys::CACHE_HITS, self.hits);
        registry.add(quorum_obs::keys::CACHE_RECOMPUTATIONS, self.recomputations);
        registry.add(quorum_obs::keys::DELTA_MERGES, self.delta.merges);
        registry.add(quorum_obs::keys::DELTA_RESCANS, self.delta.rescans);
        registry.add(quorum_obs::keys::DELTA_NOOPS, self.delta.noops);
        registry.add(
            quorum_obs::keys::FULL_RECOMPUTES,
            self.delta.full_recomputes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_votes(n: usize) -> Vec<u64> {
        vec![1; n]
    }

    #[test]
    fn fully_up_ring_is_one_component() {
        let t = Topology::ring(7);
        let s = NetworkState::all_up(&t);
        let v = ComponentView::compute(&t, &s, &uniform_votes(7));
        assert_eq!(v.num_components(), 1);
        assert_eq!(v.votes_of(3), 7);
        assert_eq!(v.largest_component_votes(), 7);
        assert!(v.connected(0, 6));
    }

    #[test]
    fn down_site_has_zero_votes() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        s.set_site(2, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(5));
        assert_eq!(v.votes_of(2), 0);
        assert_eq!(v.component_of(2), ComponentView::DOWN);
        assert_eq!(v.size_of(2), 0);
        // Remaining 4 sites still connected around the ring.
        assert_eq!(v.votes_of(0), 4);
    }

    #[test]
    fn ring_partitions_with_two_link_failures() {
        let t = Topology::ring(6); // links (0,1),(1,2),(2,3),(3,4),(4,5),(5,0)
        let mut s = NetworkState::all_up(&t);
        s.set_link(0, false); // cut (0,1)
        s.set_link(3, false); // cut (3,4)
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        assert_eq!(v.num_components(), 2);
        assert!(v.connected(1, 3));
        assert!(v.connected(4, 0));
        assert!(!v.connected(1, 4));
        assert_eq!(v.votes_of(1), 3); // {1,2,3}
        assert_eq!(v.votes_of(5), 3); // {4,5,0}
    }

    #[test]
    fn single_link_failure_does_not_partition_ring() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        s.set_link(2, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        assert_eq!(v.num_components(), 1);
        assert_eq!(v.votes_of(0), 6);
    }

    #[test]
    fn weighted_votes_counted() {
        let t = Topology::path(3);
        let mut s = NetworkState::all_up(&t);
        s.set_link(1, false); // separates {0,1} from {2}
        let v = ComponentView::compute(&t, &s, &[5, 2, 9]);
        assert_eq!(v.votes_of(0), 7);
        assert_eq!(v.votes_of(2), 9);
        assert_eq!(v.largest_component_votes(), 9);
    }

    #[test]
    fn site_failure_partitions_star() {
        let t = Topology::star(5);
        let mut s = NetworkState::all_up(&t);
        s.set_site(0, false); // hub down
        let v = ComponentView::compute(&t, &s, &uniform_votes(5));
        assert_eq!(v.num_components(), 4);
        for site in 1..5 {
            assert_eq!(v.votes_of(site), 1);
        }
    }

    #[test]
    fn members_of_lists_component() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        s.set_link(0, false);
        s.set_link(3, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        let members: Vec<usize> = v.members_of(2).collect();
        assert_eq!(members, vec![1, 2, 3]);
        s.set_site(1, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        assert_eq!(v.members_of(1).count(), 0, "down site has no members");
    }

    #[test]
    fn all_components_partitions_up_sites() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        s.set_link(0, false);
        s.set_link(3, false);
        s.set_site(5, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        let comps = v.all_components();
        let mut all: Vec<usize> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4], "every up site in exactly one");
        for (id, members) in comps.iter().enumerate() {
            for &m in members {
                assert_eq!(v.component_of(m), id as u32);
            }
        }
    }

    #[test]
    fn all_down_network() {
        let t = Topology::ring(4);
        let s = NetworkState::all_down(&t);
        let v = ComponentView::compute(&t, &s, &uniform_votes(4));
        assert_eq!(v.num_components(), 0);
        assert_eq!(v.largest_component_votes(), 0);
    }

    /// Sets `site` to `up` and reports the transition, if it was one.
    fn toggle_site(
        cache: &mut ComponentCache,
        t: &Topology,
        s: &mut NetworkState,
        votes: &[u64],
        site: usize,
        up: bool,
    ) {
        if s.set_site(site, up) {
            cache.apply_event(t, s, votes, TopologyEvent::Site { site, up });
        }
    }

    /// Sets `link` to `up` and reports the transition, if it was one.
    fn toggle_link(
        cache: &mut ComponentCache,
        t: &Topology,
        s: &mut NetworkState,
        votes: &[u64],
        link: usize,
        up: bool,
    ) {
        if s.set_link(link, up) {
            cache.apply_event(t, s, votes, TopologyEvent::Link { link, up });
        }
    }

    #[test]
    fn cache_recomputes_only_when_invalidated() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        let votes = uniform_votes(5);
        let mut cache = ComponentCache::new();
        assert_eq!(cache.view(&t, &s, &votes).votes_of(0), 5);
        assert_eq!(cache.view(&t, &s, &votes).votes_of(1), 5);
        assert_eq!(cache.recomputations(), 1);
        assert_eq!(cache.hits(), 1);

        toggle_site(&mut cache, &t, &mut s, &votes, 0, false);
        assert_eq!(cache.view(&t, &s, &votes).votes_of(1), 4);
        assert_eq!(cache.recomputations(), 2);
    }

    #[test]
    fn cache_observation_matches_its_own_counters() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        let votes = uniform_votes(5);
        let mut cache = ComponentCache::new();
        for i in 0..6 {
            if i % 3 == 0 {
                toggle_site(&mut cache, &t, &mut s, &votes, i % 5, i % 2 == 0);
            }
            cache.view(&t, &s, &votes);
        }
        let r = quorum_obs::Registry::new();
        cache.observe_into(&r);
        let snap = r.snapshot();
        assert_eq!(snap.counter(quorum_obs::keys::CACHE_HITS), cache.hits());
        assert_eq!(
            snap.counter(quorum_obs::keys::CACHE_RECOMPUTATIONS),
            cache.recomputations()
        );
        assert_eq!(cache.hits() + cache.recomputations(), 6);
    }

    #[test]
    fn view_matches_fresh_compute_after_many_mutations() {
        let t = Topology::ring_with_chords(21, 8);
        let mut s = NetworkState::all_up(&t);
        let votes = uniform_votes(21);
        let mut cache = ComponentCache::new();
        for i in 0..10 {
            toggle_site(&mut cache, &t, &mut s, &votes, i, i % 2 == 0);
            toggle_link(&mut cache, &t, &mut s, &votes, i, i % 3 != 0);
            let cached: Vec<u64> = (0..21)
                .map(|x| cache.view(&t, &s, &votes).votes_of(x))
                .collect();
            let fresh = ComponentView::compute(&t, &s, &votes);
            let direct: Vec<u64> = (0..21).map(|x| fresh.votes_of(x)).collect();
            assert_eq!(cached, direct);
        }
    }

    #[test]
    fn incremental_cache_matches_reference_cache() {
        let t = Topology::ring_with_chords(21, 8);
        let mut s = NetworkState::all_up(&t);
        let votes: Vec<u64> = (0..21).map(|i| (i % 3 + 1) as u64).collect();
        let mut cache = ComponentCache::new();
        for i in 0..40usize {
            if i % 2 == 0 {
                let site = (i * 7) % 21;
                let up = !s.site_up(site);
                toggle_site(&mut cache, &t, &mut s, &votes, site, up);
            } else {
                let link = (i * 11) % t.num_links();
                let up = !s.link_up(link);
                toggle_link(&mut cache, &t, &mut s, &votes, link, up);
            }
            let reference = ComponentView::compute(&t, &s, &votes);
            assert_eq!(
                cache.view(&t, &s, &votes),
                &reference,
                "kernel diverged at step {i}"
            );
        }
        // One refresh per event-separated view call, and every event
        // classified exactly once.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.recomputations(), 40);
        assert_eq!(cache.delta_counters().total(), 40);
    }

    #[test]
    fn event_before_first_view_counts_full_recompute() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        let votes = uniform_votes(5);
        let mut cache = ComponentCache::new();
        s.set_site(1, false);
        cache.apply_event(&t, &s, &votes, TopologyEvent::Site { site: 1, up: false });
        assert_eq!(cache.delta_counters().full_recomputes, 1);
        assert_eq!(cache.delta_counters().total(), 1);
        let fresh = ComponentView::compute(&t, &s, &votes);
        assert_eq!(cache.view(&t, &s, &votes), &fresh);
    }

    #[test]
    fn member_index_reads_match_scan() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        s.set_link(0, false);
        s.set_link(3, false);
        s.set_site(5, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        for id in 0..v.num_components() as u32 {
            let via_iter: Vec<usize> = v.members_of_component(id).collect();
            let via_bits: Vec<usize> = v.member_bits(id).iter_ones().collect();
            assert_eq!(via_iter, via_bits);
            assert_eq!(via_iter.len() as u32, v.component_sizes()[id as usize]);
            for &m in &via_iter {
                assert_eq!(v.component_of(m), id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one vote weight per site")]
    fn wrong_vote_len_rejected() {
        let t = Topology::ring(4);
        let s = NetworkState::all_up(&t);
        ComponentView::compute(&t, &s, &[1, 1, 1]);
    }
}
