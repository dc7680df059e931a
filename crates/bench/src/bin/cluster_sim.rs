//! Message-level cluster simulation driver (`quorum-cluster`).
//!
//! Two modes:
//!
//! * **Single run** (default): simulate one `(topology, q_r, network)`
//!   configuration at the chosen scale and print availability, goodput,
//!   latency, and message/retry counters. With `--manifest <path>` the
//!   run manifest — including both latency histograms — is written next
//!   to the printed table.
//! * **Latency sweep** (`--sweep`): grid over network latency × every
//!   legal `q_r`, with retries disabled so every session must beat the
//!   fixed timeout on its first round. Demonstrates the EXPERIMENTS.md
//!   protocol: as per-message latency grows against the timeout, the
//!   ACC-optimal `q_r` shifts *smaller*, because read fan-out cost (the
//!   `q_r`-th fastest reply) starts timing sessions out before the
//!   instantaneous-world optimum does.
//!
//! The zero-latency/zero-loss configuration (`--ideal`) reproduces the
//! instantaneous simulator's decisions exactly (see
//! `tests/cluster_degeneracy.rs`), so this driver extends — never
//! contradicts — the paper's §5 numbers.
//!
//! Usage: cargo run -p quorum-bench --release --bin cluster_sim
//!        [-- --topology ring --sites 9 --alpha 0.7 --qr 5
//!            --latency 0.02 --loss 0.02 --timeout 0.25 --retries 3
//!            --seed 11 --quick --sweep --ideal --manifest run.json]

#![forbid(unsafe_code)]

use quorum_bench::{default_threads, manifest, pct, print_table, Args, Scale};
use quorum_cluster::{
    run_cluster, run_cluster_observed, ClusterConfig, LatencyDist, NetConfig, RunOptions,
};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_graph::Topology;
use quorum_obs::{Registry, RunManifest};
use quorum_replica::Workload;
use quorum_stats::par_map;

/// Builds the topology plus matching votes/workload. The bus hub (node
/// 0) is pure wiring: zero votes, zero workload weight.
fn site_setup(kind: &str, sites: usize, alpha: f64) -> (Topology, VoteAssignment, Workload) {
    match kind {
        "ring" => (
            Topology::ring(sites),
            VoteAssignment::uniform(sites),
            Workload::uniform(sites, alpha),
        ),
        "full" => (
            Topology::fully_connected(sites),
            VoteAssignment::uniform(sites),
            Workload::uniform(sites, alpha),
        ),
        "bus" => {
            let topo = Topology::bus(sites);
            let mut votes = vec![1u64; sites + 1];
            votes[0] = 0;
            let mut weights = vec![1.0; sites + 1];
            weights[0] = 0.0;
            (
                topo,
                VoteAssignment::weighted(votes),
                Workload::weighted(alpha, &weights, &weights),
            )
        }
        other => panic!("--topology {other:?}: expected ring, full, or bus"),
    }
}

fn config_for(args: &Args, scale: Scale) -> ClusterConfig {
    let mut cfg = if args.flag("ideal") {
        ClusterConfig::ideal(scale.params())
    } else {
        ClusterConfig::new(scale.params())
    };
    if let Some(mean) = args.get::<f64>("latency") {
        cfg.net.latency = LatencyDist::Exponential { mean };
    }
    if let Some(loss) = args.get::<f64>("loss") {
        cfg.net.loss = loss;
    }
    cfg.session_timeout = args.get_or("timeout", cfg.session_timeout);
    cfg.max_retries = args.get_or("retries", cfg.max_retries);
    cfg
}

fn single_run(args: &Args, scale: Scale, seed: u64) {
    let sites: usize = args.get_or("sites", 9);
    let alpha: f64 = args.get_or("alpha", 0.7);
    let kind: String = args.get_or("topology", "ring".to_string());
    let (topo, votes, workload) = site_setup(&kind, sites, alpha);
    let total = votes.total();
    let qr: u64 = args.get_or("qr", total / 2);
    let spec = QuorumSpec::from_read_quorum(qr, total).expect("legal --qr for this vote total");
    let cfg = config_for(args, scale);
    let threads = args.get_or("threads", default_threads());

    println!(
        "# Cluster run | {} alpha={alpha} q=({},{})/{} latency={:?} loss={} timeout={} retries={} scale={} seed={seed} threads={threads}",
        topo.name(),
        spec.q_r(),
        spec.q_w(),
        total,
        cfg.net.latency,
        cfg.net.loss,
        cfg.session_timeout,
        cfg.max_retries,
        scale.label(),
    );

    let registry = Registry::new();
    let started = std::time::Instant::now();
    let res = run_cluster_observed(
        &topo,
        &cfg,
        spec,
        votes.clone(),
        workload,
        RunOptions::threaded(seed, threads),
        &registry,
    );
    let wall = started.elapsed();
    let ci = res
        .interval()
        .map(|ci| format!("±{:.2}%", 100.0 * ci.half_width))
        .unwrap_or_else(|| "n/a".into());
    let c = &res.combined;

    let rows = vec![
        vec![
            "ACC".into(),
            format!(
                "{} ({ci}, {} batches)",
                pct(res.availability()),
                res.batches
            ),
        ],
        vec!["read ACC".into(), pct(c.read_availability())],
        vec!["write ACC".into(), pct(c.write_availability())],
        vec![
            "goodput".into(),
            format!("{:.3} commits/unit-time", c.goodput()),
        ],
        vec![
            "read latency".into(),
            format!("{:.4} mean", c.read_latency.mean()),
        ],
        vec![
            "write latency".into(),
            format!("{:.4} mean", c.write_latency.mean()),
        ],
        vec![
            "timed out".into(),
            format!("{}", c.reads_timed_out + c.writes_timed_out),
        ],
        vec![
            "unavailable".into(),
            format!("{}", c.reads_unavailable + c.writes_unavailable),
        ],
        vec!["retries".into(), format!("{}", c.retries)],
        vec![
            "messages".into(),
            format!(
                "{} sent / {} delivered / {} dropped",
                c.messages_sent, c.messages_delivered, c.messages_dropped
            ),
        ],
        vec![
            "freshness violations".into(),
            format!("{}", c.freshness_violations),
        ],
        vec![
            "wall clock".into(),
            format!(
                "{:.2}s on {threads} thread(s), utilization {:.0}%",
                wall.as_secs_f64(),
                100.0 * registry.snapshot().gauges["cluster.thread_utilization"],
            ),
        ],
    ];
    print_table(&["metric", "value"], &rows);
    assert!(res.is_fresh(), "stale committed read — protocol bug");

    let mut m = RunManifest::new("cluster_sim", seed);
    m.params = manifest::sim_params_record(&cfg.params);
    m.topology = manifest::topology_record(topo.name(), 0, &topo);
    m.votes = votes.as_slice().to_vec();
    res.fill_manifest(&mut m);
    m.absorb_snapshot(&registry.snapshot());
    manifest::write_requested(args, &m);
}

fn sweep(args: &Args, scale: Scale, seed: u64) {
    let sites: usize = args.get_or("sites", 9);
    let alpha: f64 = args.get_or("alpha", 0.7);
    let kind: String = args.get_or("topology", "ring".to_string());
    let threads = args.get_or("threads", default_threads());
    let (topo, votes, workload) = site_setup(&kind, sites, alpha);
    let total = votes.total();

    // Fixed-batch parameters keep the grid affordable; the CI question
    // here is the argmax location, not a tight per-cell interval.
    let mut params = scale.params();
    params.max_batches = params.min_batches;
    let latencies = [0.01, 0.04, 0.08, 0.16, 0.32];
    let qrs: Vec<u64> = QuorumSpec::read_quorum_domain(total).collect();

    println!(
        "# Latency sweep | {} alpha={alpha} timeout={} qr∈{:?} scale={} seed={seed}",
        topo.name(),
        ClusterConfig::new(params).session_timeout,
        (qrs[0], *qrs.last().expect("non-empty domain")),
        scale.label(),
    );

    let cells: Vec<(f64, u64)> = latencies
        .iter()
        .flat_map(|&lat| qrs.iter().map(move |&qr| (lat, qr)))
        .collect();
    // Per cell: (ACC, goodput, read/write latency means).
    let results = par_map(&cells, threads, |&(lat, qr)| {
        let mut cfg = ClusterConfig::new(params);
        cfg.net = NetConfig {
            latency: LatencyDist::Exponential { mean: lat },
            loss: 0.01,
        };
        // No retries: a session must beat the timeout on its first
        // round, so ACC itself pays the fan-out cost (the `q_r`-th
        // fastest reply) instead of hiding it behind retransmissions.
        cfg.max_retries = 0;
        let spec = QuorumSpec::from_read_quorum(qr, total).expect("domain is legal");
        let res = run_cluster(&topo, &cfg, spec, votes.clone(), workload.clone(), seed);
        assert!(res.is_fresh(), "stale committed read — protocol bug");
        (
            res.availability(),
            res.combined.goodput(),
            res.combined.read_latency.mean(),
            res.combined.write_latency.mean(),
        )
    });

    let mut m = RunManifest::new("cluster_sim_sweep", seed);
    m.params = manifest::sim_params_record(&params);
    m.topology = manifest::topology_record(topo.name(), 0, &topo);
    m.votes = votes.as_slice().to_vec();

    println!("latency\tq_r\tACC\tgoodput\tread_lat\twrite_lat");
    let mut best_track = Vec::new();
    for (li, &lat) in latencies.iter().enumerate() {
        let mut best: Option<(u64, f64)> = None;
        for (qi, &qr) in qrs.iter().enumerate() {
            let (acc, goodput, rl, wl) = results[li * qrs.len() + qi];
            println!("{lat}\t{qr}\t{}\t{goodput:.3}\t{rl:.4}\t{wl:.4}", pct(acc));
            m.set_metric(&format!("sweep.acc.lat{lat}.qr{qr}"), acc);
            m.set_metric(&format!("sweep.goodput.lat{lat}.qr{qr}"), goodput);
            if best.is_none_or(|(_, a)| acc > a) {
                best = Some((qr, acc));
            }
        }
        let (qr, acc) = best.expect("non-empty q_r domain");
        println!("# latency {lat}: ACC-optimal q_r = {qr} ({})", pct(acc));
        m.set_metric(&format!("sweep.best_qr.lat{lat}"), qr as f64);
        best_track.push(qr);
    }
    println!(
        "# optimal q_r by rising latency: {:?} (expected: drifts toward small q_r as fan-out cost grows)",
        best_track
    );
    manifest::write_requested(args, &m);
}

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 11);
    if args.flag("sweep") {
        sweep(&args, scale, seed);
    } else {
        single_run(&args, scale, seed);
    }
}
