//! The four workloads. Each runs at one thread (the benchmark host has
//! two CPUs, so the harness never competes with its own workers), and
//! each pins its amount of work: batch counts with
//! `min_batches == max_batches`, the object count and horizon, and the
//! state cap.

pub mod cluster;
pub mod mc;
pub mod paper;
pub mod shard;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_pipeline",
    "shard_steady",
    "cluster_lossy",
    "model_check",
];
