//! Statistics substrate for the quorum-assignment reproduction.
//!
//! This crate provides the numerical machinery that the rest of the
//! workspace builds on:
//!
//! * [`DiscreteDist`] — probability mass functions over vote counts
//!   `0..=T`, with the tail sums used by the availability function
//!   `A(α, q_r)` of Johnson & Raab (Figure 1 of the paper).
//! * [`CountingHistogram`] / [`DecayedHistogram`] — the two on-line
//!   estimators of the component-size density `f_i(v)` described in §4.2
//!   of the paper.
//! * [`BatchMeans`] and [`ConfidenceInterval`] — the batch-means output
//!   analysis the paper's simulator uses (§5.2: batches of one million
//!   accesses, 95 % confidence intervals of half-width ≤ 0.5 %).
//! * [`converge`] — the generic parallel batch orchestrator built on
//!   them: runs `Fn(batch_index) -> stats` jobs on scoped worker
//!   threads, merges deterministically by batch index, and applies the
//!   stop-when-tight rule (every multi-batch runner shares this loop).
//! * [`par_map`] — the ordered parallel job runner underneath it, also
//!   used by every experiment driver that sweeps independent cells.
//! * One-dimensional optimizers ([`optimize`]) — exhaustive integer argmax,
//!   the golden-section search the paper suggests in §4.1, and Brent's
//!   method for continuous relaxations.
//! * RNG helpers ([`rng`]) — deterministic seed derivation and exponential
//!   variates for Poisson processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod ci;
pub mod converge;
pub mod discrete;
pub mod histogram;
pub mod optimize;
pub mod parallel;
pub mod rng;

pub use batch::{BatchMeans, RunningStats};
pub use ci::ConfidenceInterval;
pub use converge::{converge, ConvergeParams, Convergence, TracePoint};
pub use discrete::DiscreteDist;
pub use histogram::{CountingHistogram, DecayedHistogram, VoteHistogram};
pub use parallel::par_map;
