//! Equivalence pinning for the incremental connectivity kernel.
//!
//! The contract under test: the kernel must never change a reported
//! number. [`ComponentCache`] (merge on recovery, single-component
//! rescan on failure, no-op filtering) must produce component views
//! bit-identical to the reference [`ComponentView::compute`] after
//! *every* event of *any* event sequence, and both simulation engines
//! must keep reporting the exact batch statistics pinned below.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use quorum_cluster::{ClusterConfig, ClusterEngine};
use quorum_core::{QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::{ComponentCache, ComponentView, NetworkState, Topology, TopologyEvent};
use quorum_replica::simulation::NullObserver;
use quorum_replica::{Simulation, Workload};

/// The topology families named by the paper's §5 experiments plus the
/// weighted-bus encoding (star whose hub carries zero votes).
fn family(kind: usize, n: usize) -> (Topology, Vec<u64>) {
    let n = n.max(5);
    match kind % 4 {
        0 => (Topology::ring(n), vec![1; n]),
        1 => {
            // Weighted votes: exercise non-uniform component vote sums.
            let votes = (0..n).map(|i| (i % 3 + 1) as u64).collect();
            (Topology::ring_with_chords(n, n / 2), votes)
        }
        2 => {
            // Bus as in the §4.2 experiments: hub relays but votes 0.
            let mut votes = vec![1u64; n];
            votes[0] = 0;
            (Topology::star(n), votes)
        }
        _ => (Topology::star(n), vec![1; n]),
    }
}

/// Applies one toggle chosen by `pick`, keeping every event a real
/// transition (`up = !current`). Returns the event applied.
fn toggle(state: &mut NetworkState, topo: &Topology, pick: usize) -> TopologyEvent {
    let n = topo.num_sites();
    let m = topo.num_links();
    let idx = pick % (n + m);
    if idx < n {
        let up = !state.site_up(idx);
        assert!(state.set_site(idx, up));
        TopologyEvent::Site { site: idx, up }
    } else {
        let link = idx - n;
        let up = !state.link_up(link);
        assert!(state.set_link(link, up));
        TopologyEvent::Link { link, up }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every event of a random sequence, the incremental cache's
    /// view equals the reference BFS bit-for-bit: same `comp_id`, same
    /// vote sums, same sizes, same member bitsets.
    #[test]
    fn random_event_sequences_match_reference(
        kind in 0usize..4,
        n in 4usize..22,
        picks in proptest::collection::vec(0usize..10_000, 1..70),
    ) {
        let (topo, votes) = family(kind, n);
        let mut state = NetworkState::all_up(&topo);
        let mut cache = ComponentCache::new();
        // Materialize before any event so merges/rescans (not rebuild
        // fallbacks) carry the sequence.
        cache.view(&topo, &state, &votes);
        for &pick in &picks {
            let ev = toggle(&mut state, &topo, pick);
            cache.apply_event(&topo, &state, &votes, ev);
            let expected = ComponentView::compute(&topo, &state, &votes);
            prop_assert_eq!(cache.view(&topo, &state, &votes), &expected);
        }
    }

    /// Every applied event lands in exactly one fast-path counter, so
    /// the counter sum equals the event count (the invariant the CI jq
    /// gate asserts on run manifests).
    #[test]
    fn counter_sum_equals_event_count(
        kind in 0usize..4,
        n in 4usize..22,
        picks in proptest::collection::vec(0usize..10_000, 1..70),
    ) {
        let (topo, votes) = family(kind, n);
        let mut state = NetworkState::all_up(&topo);
        let mut cache = ComponentCache::new();
        for &pick in &picks {
            let ev = toggle(&mut state, &topo, pick);
            cache.apply_event(&topo, &state, &votes, ev);
        }
        prop_assert_eq!(cache.delta_counters().total(), picks.len() as u64);
    }
}

/// Everything down, then everything back up: the emptiest and fullest
/// component structures, reached through pure fast paths.
#[test]
fn all_down_then_all_up_matches_reference() {
    let (topo, votes) = family(1, 12);
    let mut state = NetworkState::all_up(&topo);
    let mut cache = ComponentCache::new();
    cache.view(&topo, &state, &votes);
    let n = topo.num_sites();
    for phase in [false, true] {
        for s in 0..n {
            assert!(state.set_site(s, phase));
            cache.apply_event(
                &topo,
                &state,
                &votes,
                TopologyEvent::Site { site: s, up: phase },
            );
            let expected = ComponentView::compute(&topo, &state, &votes);
            assert_eq!(cache.view(&topo, &state, &votes), &expected);
        }
    }
    assert_eq!(cache.view(&topo, &state, &votes).num_components(), 1);
}

/// Hub failure on a star shatters one component into n−1 singletons in a
/// single rescan; hub recovery re-merges them.
#[test]
fn star_hub_failure_and_recovery_match_reference() {
    let (topo, votes) = family(3, 9);
    let mut state = NetworkState::all_up(&topo);
    let mut cache = ComponentCache::new();
    cache.view(&topo, &state, &votes);
    for up in [false, true] {
        assert!(state.set_site(0, up));
        cache.apply_event(&topo, &state, &votes, TopologyEvent::Site { site: 0, up });
        let expected = ComponentView::compute(&topo, &state, &votes);
        assert_eq!(cache.view(&topo, &state, &votes), &expected);
        let want = if up { 1 } else { topo.num_sites() - 1 };
        assert_eq!(cache.view(&topo, &state, &votes).num_components(), want);
    }
    let counters = cache.delta_counters();
    assert_eq!(counters.rescans, 1, "hub failure is one component rescan");
    assert_eq!(counters.merges, 1, "hub recovery is one merge cascade");
}

fn pin_params() -> SimParams {
    SimParams {
        warmup_accesses: 1_000,
        batch_accesses: 8_000,
        ..SimParams::quick()
    }
}

/// Every topology transition lands in exactly one fast-path counter.
fn assert_transitions_classified(classified: [u64; 4], transitions: u64) {
    assert_eq!(
        classified.iter().sum::<u64>(),
        transitions,
        "every transition classified exactly once: {classified:?}"
    );
}

/// The replica engine's exact batch statistics on fixed seeds,
/// including the survivability probe, which reads components through
/// the member index. A change to the event stream or to any served view
/// fails here.
#[test]
fn replica_stats_match_golden() {
    let topo = Topology::ring_with_chords(21, 8);
    let votes = VoteAssignment::weighted((0..21).map(|i| (i % 4 + 1) as u64).collect());
    let spec = QuorumSpec::majority(votes.total());
    let workload = Workload::uniform(21, 0.6);
    let mut sim = Simulation::with_votes(&topo, pin_params(), votes.clone(), workload, 97)
        .probe_survivability(true);
    let mut proto = QuorumConsensus::new(votes, spec);

    // (reads submitted/granted, writes submitted/granted, surv_possible,
    //  contact messages, events, site/link transitions, cache hits/recomputations)
    let golden: [[u64; 11]; 3] = [
        [
            4844, 4589, 3156, 3003, 8000, 54449, 9304, 140, 164, 8709, 291,
        ],
        [
            4783, 4459, 3217, 3026, 7933, 54650, 9370, 160, 210, 8648, 352,
        ],
        [
            4833, 4665, 3167, 3062, 8000, 55362, 9310, 118, 192, 8704, 296,
        ],
    ];
    // (merges, rescans, no-ops, full recomputes)
    let golden_delta: [[u64; 4]; 3] = [[79, 152, 73, 0], [89, 174, 107, 0], [61, 148, 101, 0]];
    for (b, (want, want_delta)) in golden.iter().zip(&golden_delta).enumerate() {
        let a = sim.run_indexed_batch(&mut proto, &mut NullObserver, b as u64);
        let got = [
            a.reads_submitted,
            a.reads_granted,
            a.writes_submitted,
            a.writes_granted,
            a.surv_possible,
            a.contact_messages,
            a.events_processed,
            a.site_transitions,
            a.link_transitions,
            a.cache_hits,
            a.cache_recomputations,
        ];
        assert_eq!(&got, want, "batch {b}");
        assert_eq!((a.stale_reads, a.write_conflicts), (0, 0), "batch {b}");
        assert_eq!(a.accesses_dispatched, 9_000, "batch {b}");
        let classified = [
            a.delta_merges,
            a.delta_rescans,
            a.delta_noops,
            a.full_recomputes,
        ];
        assert_eq!(&classified, want_delta, "batch {b}");
        assert_transitions_classified(classified, a.site_transitions + a.link_transitions);
    }
}

/// The cluster engine's exact `ClusterStats` (outcomes, messages,
/// latencies, goodput inputs) on fixed seeds.
#[test]
fn cluster_stats_match_golden() {
    let topo = Topology::ring_with_chords(17, 6);
    let votes = VoteAssignment::uniform(17);
    let spec = QuorumSpec::majority(votes.total());
    let workload = Workload::uniform(17, 0.5);
    let cfg = ClusterConfig::new(pin_params());
    let mut engine = ClusterEngine::with_votes(&topo, cfg, spec, votes, workload, 53);

    // (reads/writes submitted, committed, timed out, unavailable)
    let golden_outcomes: [[u64; 8]; 2] = [
        [4005, 3995, 3861, 3839, 4, 9, 140, 147],
        [4041, 3959, 3866, 3776, 9, 8, 166, 175],
    ];
    // (messages sent/delivered/dropped, retries, timers cancelled,
    //  sessions opened, site/link transitions, events)
    let golden_traffic: [[u64; 9]; 2] = [
        [408881, 399949, 8924, 51, 8677, 8691, 120, 174, 418232],
        [403744, 392324, 11412, 81, 8604, 8621, 138, 165, 413137],
    ];
    // (merges, rescans, no-ops, full recomputes)
    let golden_delta: [[u64; 4]; 2] = [[63, 140, 91, 0], [74, 141, 88, 0]];
    let golden_latency: [([u64; 10], [u64; 10]); 2] = [
        (
            [0, 3355, 501, 0, 0, 0, 3, 2, 0, 0],
            [0, 0, 3836, 0, 0, 1, 1, 1, 0, 0],
        ),
        (
            [0, 3285, 569, 0, 0, 3, 6, 3, 0, 0],
            [0, 0, 3769, 0, 0, 4, 1, 2, 0, 0],
        ),
    ];
    // (read latency mean, write latency mean, measured duration)
    let golden_times: [[f64; 3]; 2] = [
        [0.02148925148923718, 0.04071633237819501, 474.5534743528955],
        [0.022715985514730103, 0.04138506355929397, 464.1748475087597],
    ];
    for b in 0..2 {
        let s = engine.run_indexed_batch(b as u64);
        let outcomes = [
            s.reads_submitted,
            s.writes_submitted,
            s.reads_committed,
            s.writes_committed,
            s.reads_timed_out,
            s.writes_timed_out,
            s.reads_unavailable,
            s.writes_unavailable,
        ];
        assert_eq!(outcomes, golden_outcomes[b], "batch {b}");
        let traffic = [
            s.messages_sent,
            s.messages_delivered,
            s.messages_dropped,
            s.retries,
            s.timers_cancelled,
            s.sessions_opened,
            s.site_transitions,
            s.link_transitions,
            s.events_processed,
        ];
        assert_eq!(traffic, golden_traffic[b], "batch {b}");
        assert_eq!(
            [
                s.installs_applied,
                s.cross_epoch_resets,
                s.stale_grants_ignored,
                s.freshness_violations
            ],
            [0; 4],
            "batch {b}"
        );
        let classified = [
            s.delta_merges,
            s.delta_rescans,
            s.delta_noops,
            s.full_recomputes,
        ];
        assert_eq!(classified, golden_delta[b], "batch {b}");
        assert_transitions_classified(classified, s.site_transitions + s.link_transitions);
        assert_eq!(s.read_latency.counts(), golden_latency[b].0, "batch {b}");
        assert_eq!(s.write_latency.counts(), golden_latency[b].1, "batch {b}");
        assert_eq!(
            [
                s.read_latency.mean(),
                s.write_latency.mean(),
                s.measured_duration
            ],
            golden_times[b],
            "batch {b}"
        );
    }
}
