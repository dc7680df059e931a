//! Cross-crate observability checks: the numbers flowing into a
//! `quorum_obs::Registry` must agree with the instrumented components'
//! own accounting, end to end — from a raw [`ComponentCache`] up through
//! the `validate_curves` sweep and its written manifest.

#![forbid(unsafe_code)]

use quorum_bench::validate::{run, ValidateOpts};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::{ComponentCache, NetworkState, Topology, TopologyEvent};
use quorum_obs::{keys, Registry, RunManifest};
use quorum_replica::{run_static_observed, RunConfig, Workload};

fn tiny_params() -> SimParams {
    SimParams {
        warmup_accesses: 500,
        batch_accesses: 5_000,
        min_batches: 2,
        max_batches: 3,
        ci_half_width: 0.05,
        ..SimParams::paper()
    }
}

#[test]
fn registry_cache_counters_equal_cache_accounting() {
    // Drive a ComponentCache by hand: the counts it reports into a
    // registry must equal its own hits()/recomputations() exactly.
    let topo = Topology::ring_with_chords(11, 2);
    let votes = vec![1u64; 11];
    let mut state = NetworkState::all_up(&topo);
    let mut cache = ComponentCache::new();
    let mut queries = 0u64;
    for round in 0..25 {
        let (site, up) = (round % 11, round % 8 != 0);
        if round % 4 == 0 && state.set_site(site, up) {
            cache.apply_event(&topo, &state, &votes, TopologyEvent::Site { site, up });
        }
        cache.view(&topo, &state, &votes);
        queries += 1;
    }
    let registry = Registry::new();
    cache.observe_into(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(keys::CACHE_HITS), cache.hits());
    assert_eq!(
        snap.counter(keys::CACHE_RECOMPUTATIONS),
        cache.recomputations()
    );
    assert_eq!(cache.hits() + cache.recomputations(), queries);
}

#[test]
fn observed_run_agrees_with_cache_and_event_totals() {
    // The registry totals after a multi-batch observed run equal the
    // merged per-batch stats, and the cache counters add up to exactly
    // one cache query per dispatched access.
    let topo = Topology::ring_with_chords(13, 4);
    let registry = Registry::new();
    let res = run_static_observed(
        &topo,
        VoteAssignment::uniform(13),
        QuorumSpec::majority(13),
        Workload::uniform(13, 0.5),
        RunConfig {
            params: tiny_params(),
            seed: 11,
            threads: 2,
        },
        &registry,
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter(keys::CACHE_HITS), res.combined.cache_hits);
    assert_eq!(
        snap.counter(keys::CACHE_RECOMPUTATIONS),
        res.combined.cache_recomputations
    );
    assert_eq!(
        snap.counter(keys::DES_EVENTS),
        res.combined.events_processed
    );
    assert_eq!(
        snap.counter(keys::DES_ACCESSES),
        res.combined.accesses_dispatched
    );
    // The simulator queries the cache exactly once per access.
    assert_eq!(
        snap.counter(keys::CACHE_HITS) + snap.counter(keys::CACHE_RECOMPUTATIONS),
        snap.counter(keys::DES_ACCESSES)
    );
    // Every DES event is a site transition, a link transition, or an
    // access arrival.
    assert_eq!(
        snap.counter(keys::DES_EVENTS),
        res.combined.site_transitions
            + res.combined.link_transitions
            + res.combined.accesses_dispatched
    );
}

#[test]
fn validate_sweep_manifest_is_self_consistent() {
    // The acceptance-criteria path: the validate_curves sweep (tiny
    // scale, 101-site paper topology) must produce a manifest carrying
    // seed, sim params, batch count, per-phase timings, DES event count,
    // and cache hit/recompute counts that are self-consistent.
    let opts = ValidateOpts {
        chords: 0,
        seed: 42,
        threads: 2,
        params: tiny_params(),
        grid: vec![(0.5, 1), (0.5, 50)],
    };
    let report = run(&opts);
    let m = &report.manifest;

    assert_eq!(m.bin, "validate_curves");
    assert_eq!(m.seed, 42);
    assert_eq!(m.params.batch_accesses, 5_000);
    assert_eq!(m.params.fail_dist, "exponential");
    assert_eq!(m.topology.sites, 101);
    assert_eq!(m.votes.len(), 101);

    // Batch count covers the reference run plus both grid cells.
    assert_eq!(m.batches, m.counter(keys::RUN_BATCHES));
    assert!(m.batches >= 3 * opts.params.min_batches);

    // Per-phase wall-clock timings are present and non-trivial.
    assert!(m.phase_secs("validate.reference") > 0.0);
    assert!(m.phase_secs("validate.grid") > 0.0);
    assert!(m.phase_secs("replica.run_static") > 0.0);

    // DES event count and cache counters are present and consistent:
    // one cache query per dispatched access.
    assert!(m.counter(keys::DES_EVENTS) > 0);
    assert_eq!(
        m.counter(keys::CACHE_HITS) + m.counter(keys::CACHE_RECOMPUTATIONS),
        m.counter(keys::DES_ACCESSES)
    );

    // The CI-convergence trace ends at the reference run's batch count.
    assert!(!m.ci_trace.is_empty());
    assert!(m.ci_trace.last().unwrap().batches <= m.batches);

    // The whole manifest survives a JSON round-trip unchanged.
    let text = m.to_json().to_string_pretty();
    let back = RunManifest::parse(&text).expect("manifest parses back");
    assert_eq!(back.to_json(), m.to_json());

    // And the file-writing path produces the same JSON.
    let dir = std::env::temp_dir();
    let json_path = dir.join("quorum_obs_manifest_test.json");
    m.write_to(&json_path).expect("write JSON manifest");
    let from_disk = RunManifest::parse(&std::fs::read_to_string(&json_path).expect("read back"))
        .expect("parse from disk");
    assert_eq!(from_disk.to_json(), m.to_json());
    let csv_path = dir.join("quorum_obs_manifest_test.csv");
    m.write_to(&csv_path).expect("write CSV manifest");
    let csv = std::fs::read_to_string(&csv_path).expect("read CSV");
    assert!(csv.contains("seed"));
    let _ = std::fs::remove_file(json_path);
    let _ = std::fs::remove_file(csv_path);
}
