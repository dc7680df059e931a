//! Structural vote-weighting heuristics on asymmetric topologies — with a
//! mostly *negative* result worth knowing.
//!
//! Intuition says a cut vertex deserves extra votes. The experiment says:
//! under majority quorums, symmetric weighting of cut vertices changes
//! almost nothing — when the cut vertex is DOWN every side is a fragment
//! no assignment can rescue, and when it is UP the majority is reachable
//! anyway (at 96 % reliability overwhelmingly so). What *does* move the
//! needle is asymmetric weighting: a primary-side assignment that lets one
//! designated fragment keep operating alone. Four assignments compared —
//! uniform, degree-proportional, articulation-weighted (symmetric), and
//! articulation-primary (all votes on one cut vertex) — at two component
//! reliabilities.
//!
//! Usage: cargo run -p quorum-bench --release --bin vote_heuristics
//!        [-- --alpha 0.5 --reliability 0.85 --medium-scale]

#![forbid(unsafe_code)]

use quorum_bench::{default_threads, pct, Args, Scale};
use quorum_core::{QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_graph::{articulation_weighted_votes, Topology};
use quorum_replica::simulation::NullObserver;
use quorum_replica::{Simulation, Workload};
use quorum_stats::par_map;

fn barbell(k: usize) -> Topology {
    // Two complete graphs of k sites joined by one bridge edge.
    let n = 2 * k;
    let mut links = Vec::new();
    for a in 0..k {
        for b in a + 1..k {
            links.push((a, b));
            links.push((k + a, k + b));
        }
    }
    links.push((k - 1, k));
    Topology::from_links(n, links, format!("barbell-{k}+{k}"))
}

fn simulate(
    topo: &Topology,
    votes: Vec<u64>,
    alpha: f64,
    scale: Scale,
    reliability: f64,
    seed: u64,
) -> f64 {
    let n = topo.num_sites();
    let va = VoteAssignment::weighted(votes);
    let spec = QuorumSpec::majority(va.total());
    let mut params = scale.params();
    params.reliability = reliability;
    let mut sim =
        Simulation::with_votes(topo, params, va.clone(), Workload::uniform(n, alpha), seed);
    let mut proto = QuorumConsensus::new(va, spec);
    sim.run_batch(&mut proto, &mut NullObserver).availability()
}

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 19);
    let threads = args.get_or("threads", default_threads());
    let alpha: f64 = args.get_or("alpha", 0.5);

    let topologies = vec![Topology::star(15), barbell(8), Topology::grid(4, 4)];
    for reliability in [0.96, 0.85] {
        println!(
            "\n# Structural vote heuristics | alpha={alpha} reliability={reliability} scale={} (majority quorums)",
            scale.label()
        );
        println!("topology\tuniform\tdegree-wt\tcut-wt(symmetric)\tcut-primary");
        for topo in &topologies {
            let n = topo.num_sites();
            let uniform = vec![1u64; n];
            let degree: Vec<u64> = (0..n).map(|s| 1 + topo.degree(s) as u64 / 3).collect();
            let articulation = articulation_weighted_votes(topo, 1, 2);
            // Primary-side: all votes on the first cut vertex (or site 0
            // when the topology has none).
            let cuts = quorum_graph::articulation_points(topo);
            let primary_site = cuts.first().copied().unwrap_or(0);
            let mut primary = vec![0u64; n];
            primary[primary_site] = 1;
            let assignments = [uniform, degree, articulation, primary];
            let out = par_map(&assignments, threads, |votes| {
                simulate(topo, votes.clone(), alpha, scale, reliability, seed)
            });
            println!(
                "{}\t{}\t{}\t{}\t{}",
                topo.name(),
                pct(out[0]),
                pct(out[1]),
                pct(out[2]),
                pct(out[3]),
            );
        }
    }
    println!("# reading: symmetric cut-vertex weighting is a wash — with the cut DOWN no");
    println!("# side can be rescued by votes, with it UP the majority was reachable");
    println!("# anyway. The asymmetric cut-primary assignment trades a lower ceiling");
    println!("# (the primary must be reachable) for partition immunity; on the barbell");
    println!("# it lets one whole clique keep operating through bridge failures.");
}
