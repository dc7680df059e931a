//! Network substrate: topologies, component state, and connectivity.
//!
//! The paper's system model (§5.1): sites and bidirectional links, both
//! fail-stop, both repairable; message passing is the only communication, so
//! failures partition the network into *components* (maximal sets of
//! mutually-communicating operational sites). The quorum machinery upstream
//! only ever asks one question of this crate: *how many votes are in the
//! component containing site `i` right now?*
//!
//! Provided here:
//!
//! * [`Topology`] — immutable site/link structure with the paper's builders
//!   (ring, ring-plus-chords "Topology *k*", fully connected) plus extras
//!   (star, grid, path, G(n,p)) used by tests and examples.
//! * [`NetworkState`] — which sites/links are currently up.
//! * [`ComponentView`] / [`ComponentCache`] — BFS component labelling over
//!   the up-subgraph, and the cache the engines read it through: a view is
//!   only re-materialized when topology events actually intervened between
//!   accesses.
//! * [`DeltaConnectivity`] — the incremental kernel behind
//!   [`ComponentCache`]: recoveries merge components
//!   (union-find over member bitsets), failures re-scan only the affected
//!   component, provable no-ops are filtered, and all scans are
//!   word-parallel over per-site adjacency bitsets.
//! * [`BusNetwork`] — the single-bus architecture of §4.2 (both variants).
//! * [`UnionFind`] — static connectivity helper used in tests/benches.
//! * [`articulation_points`] — cut-vertex detection (Tarjan) feeding the
//!   structural vote-weighting heuristic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod bitset;
pub mod bus;
pub mod connectivity;
pub mod delta;
pub mod state;
pub mod topology;
pub mod unionfind;

pub use articulation::{articulation_points, articulation_weighted_votes};
pub use bitset::BitSet;
pub use bus::{BusFailureMode, BusNetwork};
pub use connectivity::{ComponentCache, ComponentView};
pub use delta::{DeltaConnectivity, DeltaCounters, DeltaOutcome, TopologyEvent};
pub use state::NetworkState;
pub use topology::Topology;
pub use unionfind::UnionFind;
