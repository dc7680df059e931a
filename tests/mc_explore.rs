//! Integration tests for the `quorum-mc` bounded explorer.
//!
//! The model checker drives the engine's real `ProtocolCore` through
//! every reachable interleaving of a scripted universe. These tests pin
//! the three headline claims of the checker:
//!
//! 1. Exploration of the standard bug-hunting universe is *exhaustive*
//!    within its bounds (nothing depth-truncated, nothing state-capped),
//!    and the fixed engine has **zero** violations in every reachable
//!    state.
//! 2. The `mix_epoch_votes` ablation — the pre-fix retry behavior —
//!    makes the same checker find cross-epoch vote mixing, so the
//!    checker demonstrably *can* catch the bug it certifies the absence
//!    of.
//! 3. The search is deterministic, and the soundness-critical reduction
//!    and symmetry options change cost, never verdicts.
//!
//! The exact exploration counts of every universe here are pinned with
//! `assert_eq!` on the whole [`McReport`]: a change to the state
//! representation or the canonical key must leave them bit-identical,
//! so one that silently merges or splits states fails here even when
//! the verdicts survive. Only `visited_key_bytes` is left free (it
//! measures the key encoding itself) and is bounded instead.
//!
//! The full standard universe (partition toggles enabled) runs ~2.5M
//! states in release; debug-mode tests trim it to the fully-connected
//! mode (`max_net_changes = 0`, ~600k states), which still reaches the
//! mixing bug through both of its channels. CI's `model-check` job runs
//! the untrimmed universe through the release binary.

#![forbid(unsafe_code)]

use quorum_core::{Access, QuorumSpec, VoteAssignment};
use quorum_mc::{explore, ExploreOptions, McReport, Universe};

/// The standard universe with partition toggles disabled: small enough
/// for debug-mode exhaustion, still containing the install/retry races.
fn trimmed_standard() -> Universe {
    let mut u = Universe::standard();
    u.max_net_changes = 0;
    u
}

/// Asserts `report` equals `expected` in every field but
/// `visited_key_bytes`, which must stay within the CI memory gate of
/// 96 key bytes per explored state.
fn assert_pinned(report: &McReport, expected: McReport) {
    assert!(
        report.visited_key_bytes <= 96 * report.states_explored,
        "canonical keys grew past 96 B/state: {report:?}"
    );
    assert_eq!(
        *report,
        McReport {
            visited_key_bytes: report.visited_key_bytes,
            ..expected
        }
    );
}

#[test]
fn fixed_engine_certifies_clean_exhaustively() {
    let report = explore(&trimmed_standard(), &ExploreOptions::default());
    assert!(
        report.exhaustive(),
        "exploration must be exhaustive: {report:?}"
    );
    assert_eq!(report.violations(), 0, "fixed engine violated: {report:?}");
    // The space is non-trivial: the certificate quantifies over a real
    // state count, not a degenerate handful.
    assert!(
        report.states_explored > 100_000,
        "suspiciously small space: {report:?}"
    );
    assert_pinned(
        &report,
        McReport {
            states_explored: 579_945,
            transitions: 1_594_049,
            por_skips: 929_176,
            noop_skips: 434_127,
            symmetry_perms: 1,
            max_depth_seen: 26,
            peak_frontier: 90_540,
            ..McReport::default()
        },
    );
}

#[test]
fn ablation_is_caught_by_the_checker() {
    let opts = ExploreOptions {
        mix_epoch_votes: true,
        ..ExploreOptions::default()
    };
    let report = explore(&trimmed_standard(), &opts);
    assert!(report.exhaustive(), "{report:?}");
    assert!(
        report.cross_epoch_violations >= 1,
        "ablated engine must exhibit cross-epoch mixing: {report:?}"
    );
    assert!(
        report.first_cross_epoch_depth.is_some(),
        "violation depth must be recorded: {report:?}"
    );
    // The bug needs an install racing a retry; it cannot fire at the
    // root or within the first couple of protocol steps.
    assert!(report.first_cross_epoch_depth.unwrap() >= 3);
    assert_pinned(
        &report,
        McReport {
            states_explored: 709_265,
            transitions: 1_907_413,
            cross_epoch_violations: 34_841,
            first_violation_depth: Some(6),
            first_cross_epoch_depth: Some(6),
            por_skips: 1_097_977,
            noop_skips: 537_810,
            symmetry_perms: 1,
            max_depth_seen: 24,
            peak_frontier: 115_468,
            ..McReport::default()
        },
    );
}

#[test]
fn symmetric_universe_counts_are_pinned() {
    let u = Universe::symmetric();
    assert_pinned(
        &explore(&u, &ExploreOptions::default()),
        McReport {
            states_explored: 349,
            transitions: 676,
            por_skips: 281,
            noop_skips: 249,
            symmetry_perms: 2,
            max_depth_seen: 12,
            peak_frontier: 75,
            ..McReport::default()
        },
    );
    let plain = ExploreOptions {
        reduction: false,
        symmetry: false,
        ..ExploreOptions::default()
    };
    assert_pinned(
        &explore(&u, &plain),
        McReport {
            states_explored: 4_372,
            transitions: 26_102,
            symmetry_perms: 1,
            max_depth_seen: 12,
            peak_frontier: 1_156,
            ..McReport::default()
        },
    );
}

/// Every state field is keyed at full width. A one-site universe with
/// 258 network modes and one permitted switch reaches exactly 258
/// states (the initial mode plus one per other mode); a key that
/// truncated the mode index to a byte would alias mode 257 with mode 1
/// and silently skip a real state.
#[test]
fn wide_state_fields_never_alias() {
    let u = Universe {
        name: "wide-modes",
        votes: VoteAssignment::uniform(1),
        initial_spec: QuorumSpec::new(1, 1, 1).expect("valid spec"),
        accesses: Vec::<(usize, Access)>::new(),
        installs: Vec::new(),
        modes: vec![vec![vec![0]]; 258],
        max_net_changes: 1,
        max_retries: 1,
        max_depth: 8,
        max_states: 1_000,
    };
    let report = explore(&u, &ExploreOptions::default());
    assert!(report.exhaustive(), "{report:?}");
    assert_eq!(report.states_explored, 258, "{report:?}");
}

#[test]
fn exploration_is_deterministic_across_runs() {
    let u = Universe::symmetric();
    let a = explore(&u, &ExploreOptions::default());
    let b = explore(&u, &ExploreOptions::default());
    assert_eq!(a, b, "identical inputs must produce identical reports");
}

#[test]
fn reduction_changes_cost_not_verdicts() {
    let u = Universe::symmetric();
    let reduced = explore(&u, &ExploreOptions::default());
    let full = explore(
        &u,
        &ExploreOptions {
            reduction: false,
            ..ExploreOptions::default()
        },
    );
    assert!(reduced.exhaustive() && full.exhaustive());
    assert_eq!(reduced.violations(), 0);
    assert_eq!(full.violations(), 0);
    assert!(
        reduced.states_explored <= full.states_explored,
        "reduction must not enlarge the space: {} vs {}",
        reduced.states_explored,
        full.states_explored
    );
    assert!(reduced.por_skips > 0, "reduction should actually prune");
}

#[test]
fn reduction_preserves_the_ablation_verdict() {
    // Soundness both ways: the pruned search must still find the bug.
    let u = Universe::symmetric();
    let mut std_small = trimmed_standard();
    // Single access keeps the unreduced search affordable in debug.
    std_small.accesses.truncate(1);
    for universe in [&u, &std_small] {
        let ablate_reduced = explore(
            universe,
            &ExploreOptions {
                mix_epoch_votes: true,
                ..ExploreOptions::default()
            },
        );
        let ablate_full = explore(
            universe,
            &ExploreOptions {
                mix_epoch_votes: true,
                reduction: false,
                ..ExploreOptions::default()
            },
        );
        assert!(ablate_reduced.exhaustive() && ablate_full.exhaustive());
        assert_eq!(
            ablate_reduced.cross_epoch_violations > 0,
            ablate_full.cross_epoch_violations > 0,
            "reduction flipped the {} verdict: reduced {:?} vs full {:?}",
            universe.name,
            ablate_reduced.cross_epoch_violations,
            ablate_full.cross_epoch_violations
        );
    }
}

#[test]
fn symmetry_shrinks_but_never_lies() {
    let u = Universe::symmetric();
    let quotient = explore(&u, &ExploreOptions::default());
    let full = explore(
        &u,
        &ExploreOptions {
            symmetry: false,
            ..ExploreOptions::default()
        },
    );
    assert!(quotient.exhaustive() && full.exhaustive());
    assert!(quotient.symmetry_perms > 1, "group should be non-trivial");
    assert!(
        quotient.states_explored < full.states_explored,
        "quotient must shrink the space: {} vs {}",
        quotient.states_explored,
        full.states_explored
    );
    assert_eq!(quotient.violations(), full.violations());
}

#[test]
fn report_counters_flow_into_the_registry() {
    let report = explore(&Universe::symmetric(), &ExploreOptions::default());
    let registry = quorum_obs::Registry::new();
    report.observe_into(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(quorum_obs::keys::MC_STATES_EXPLORED),
        report.states_explored
    );
    assert_eq!(snap.counter(quorum_obs::keys::MC_VIOLATIONS), 0);
    assert_eq!(snap.counter(quorum_obs::keys::MC_TRUNCATED), 0);
    assert_eq!(snap.counter(quorum_obs::keys::MC_CAPPED), 0);
}
