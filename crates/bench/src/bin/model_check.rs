//! Bounded exhaustive model check of the cluster protocol (`quorum-mc`).
//!
//! Explores every reachable state of a scripted [`Universe`] — all
//! message delivery/drop orders, timer fires, partition toggles, and
//! install points — driving the engine's real `ProtocolCore`, and
//! reports state counts plus invariant violations (cross-epoch vote
//! mixing, stale committed reads, multiple write-capable components).
//!
//! The default run certifies the shipped engine: exhaustive within
//! bounds (`truncated == 0`, `capped == false`) and zero violations.
//! `--ablate` re-runs with the `mix_epoch_votes` flag restoring the
//! pre-fix retry behavior; the checker must then find cross-epoch
//! mixing, which is the negative control CI gates on.
//!
//! Usage: cargo run -p quorum-bench --release --bin model_check
//!        [-- --universe standard --ablate --depth 48 --states 4000000
//!            --net-changes 1 --no-reduction --no-symmetry
//!            --manifest run.json]

#![forbid(unsafe_code)]

use quorum_bench::{manifest, print_table, Args};
use quorum_mc::{explore, ExploreOptions, Universe};
use quorum_obs::{Registry, RunManifest};

fn universe_for(name: &str) -> Universe {
    match name {
        "standard" => Universe::standard(),
        "symmetric" => Universe::symmetric(),
        other => panic!("--universe {other:?}: expected standard or symmetric"),
    }
}

fn main() {
    let args = Args::parse();
    let name: String = args.get_or("universe", "standard".to_string());
    let mut universe = universe_for(&name);
    if let Some(nc) = args.get::<u32>("net-changes") {
        universe.max_net_changes = nc;
    }
    let opts = ExploreOptions {
        mix_epoch_votes: args.flag("ablate"),
        reduction: !args.flag("no-reduction"),
        symmetry: !args.flag("no-symmetry"),
        max_depth: args.get::<u32>("depth"),
        max_states: args.get::<u64>("states"),
    };

    println!(
        "# Model check | universe={name} sites={} accesses={} installs={} modes={} ablate={} reduction={} symmetry={}",
        universe.num_sites(),
        universe.accesses.len(),
        universe.installs.len(),
        universe.modes.len(),
        opts.mix_epoch_votes,
        opts.reduction,
        opts.symmetry,
    );

    let started = std::time::Instant::now();
    let report = explore(&universe, &opts);
    let wall = started.elapsed();

    let depth = |d: Option<u32>| d.map_or("—".to_string(), |d| d.to_string());
    let rows = vec![
        vec![
            "states explored".into(),
            format!("{}", report.states_explored),
        ],
        vec!["transitions".into(), format!("{}", report.transitions)],
        vec![
            "exhaustive".into(),
            format!(
                "{} (truncated={}, capped={})",
                report.exhaustive(),
                report.truncated,
                report.capped
            ),
        ],
        vec![
            "violations".into(),
            format!(
                "{} (cross-epoch={}, stale-read={}, multi-write={})",
                report.violations(),
                report.cross_epoch_violations,
                report.stale_read_violations,
                report.multi_write_violations
            ),
        ],
        vec![
            "first violation depth".into(),
            depth(report.first_violation_depth),
        ],
        vec![
            "first cross-epoch depth".into(),
            depth(report.first_cross_epoch_depth),
        ],
        vec![
            "reduction".into(),
            format!(
                "{} dead messages auto-dropped, {} alternatives skipped",
                report.noop_skips, report.por_skips
            ),
        ],
        vec![
            "symmetry group".into(),
            format!("{} permutation(s)", report.symmetry_perms),
        ],
        vec![
            "max depth seen".into(),
            format!("{}", report.max_depth_seen),
        ],
        vec![
            "visited key bytes".into(),
            format!(
                "{} ({:.1} B/state)",
                report.visited_key_bytes,
                report.visited_key_bytes as f64 / report.states_explored.max(1) as f64
            ),
        ],
        vec!["peak frontier".into(), format!("{}", report.peak_frontier)],
        vec!["wall clock".into(), format!("{:.2}s", wall.as_secs_f64())],
    ];
    print_table(&["metric", "value"], &rows);

    if opts.mix_epoch_votes {
        println!(
            "# ablation (pre-fix behavior): checker must find cross-epoch mixing — found {}",
            report.cross_epoch_violations
        );
    } else if report.exhaustive() && report.violations() == 0 {
        println!("# certified: every reachable state within bounds satisfies all invariants");
    }

    let registry = Registry::new();
    report.observe_into(&registry);
    let mut m = RunManifest::new("model_check", 0);
    m.votes = universe.votes.as_slice().to_vec();
    m.set_metric(quorum_obs::keys::MC_ABLATE, f64::from(opts.mix_epoch_votes));
    m.absorb_snapshot(&registry.snapshot());
    manifest::write_requested(&args, &m);
}
