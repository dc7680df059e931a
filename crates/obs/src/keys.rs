//! The metric-key registry: the single declared schema of every metric
//! key the workspace emits.
//!
//! Producers (simulator, cache, estimator, benches) and consumers
//! (manifest writers, CI jq gates) agree by referencing these constants
//! instead of spelling strings; `quorum-lint`'s `obs-key-registry` rule
//! enforces both directions — a key emitted anywhere without a constant
//! here fails the lint, and a constant here that nothing references is
//! dead schema and fails too. `quorum-lint --emit-keys-json` exports
//! this file so CI can cross-check the keys its gates grep for.

/// DES events popped from the future-event list.
pub const DES_EVENTS: &str = "des.events_processed";
/// Site up/down transitions applied.
pub const DES_SITE_TRANSITIONS: &str = "des.site_transitions";
/// Link up/down transitions applied.
pub const DES_LINK_TRANSITIONS: &str = "des.link_transitions";
/// Accesses submitted (warm-up + measured).
pub const DES_ACCESSES: &str = "des.accesses";
/// Cancelled-timer tombstones still resident in the event list at
/// observation time (gauge).
pub const DES_QUEUE_TOMBSTONES: &str = "des.queue_tombstones";
/// Tombstone compaction sweeps performed by the event list.
pub const DES_QUEUE_COMPACTIONS: &str = "des.queue_compactions";
/// Objects simulated by the sharded throughput engine.
pub const SHARD_OBJECTS: &str = "shard.objects";
/// Shards the object space was partitioned into.
pub const SHARD_SHARDS: &str = "shard.shards";
/// Accesses dispatched across all objects (reads + writes).
pub const SHARD_ACCESSES: &str = "shard.accesses";
/// Connectivity epochs in the shared failure timeline.
pub const SHARD_EPOCHS: &str = "shard.epochs";
/// Assignment profiles (grant rows per epoch) in the timeline.
pub const SHARD_ASSIGNMENTS: &str = "shard.assignments";
/// Reads granted across all objects.
pub const SHARD_READS_GRANTED: &str = "shard.reads_granted";
/// Writes granted across all objects.
pub const SHARD_WRITES_GRANTED: &str = "shard.writes_granted";
/// Reads submitted across all objects.
pub const SHARD_READS_SUBMITTED: &str = "shard.reads_submitted";
/// Writes submitted across all objects.
pub const SHARD_WRITES_SUBMITTED: &str = "shard.writes_submitted";
/// Component-cache queries served without a BFS.
pub const CACHE_HITS: &str = "graph.component_cache.hits";
/// Component-cache queries that recomputed the BFS.
pub const CACHE_RECOMPUTATIONS: &str = "graph.component_cache.recomputations";
/// Topology events the incremental kernel absorbed by merging
/// components (recoveries; no BFS).
pub const DELTA_MERGES: &str = "graph.delta_merges";
/// Topology events absorbed by re-scanning one component (failures).
pub const DELTA_RESCANS: &str = "graph.delta_rescans";
/// Topology events filtered as provably partition-preserving.
pub const DELTA_NOOPS: &str = "graph.delta_noops";
/// Topology events absorbed by rebuilding the kernel from scratch.
pub const FULL_RECOMPUTES: &str = "graph.full_recomputes";
/// Batches executed by a runner.
pub const RUN_BATCHES: &str = "replica.batches";
/// Worker threads the runner used.
pub const RUN_THREADS: &str = "replica.threads";
/// Observations recorded into estimator histograms.
pub const ESTIMATOR_OBSERVATIONS: &str = "core.estimator.observations";
/// Objective evaluations spent by optimizer argmax sweeps.
pub const OPTIMIZER_EVALUATIONS: &str = "core.optimizer.evaluations";
/// Messages sent by cluster sites (all types, including retries).
pub const CLUSTER_MESSAGES_SENT: &str = "cluster.messages_sent";
/// Messages delivered to their destination site.
pub const CLUSTER_MESSAGES_DELIVERED: &str = "cluster.messages_delivered";
/// Messages dropped (Bernoulli loss or partitioned at delivery time).
pub const CLUSTER_MESSAGES_DROPPED: &str = "cluster.messages_dropped";
/// Quorum sessions (read or write) started, excluding retries.
pub const CLUSTER_SESSIONS: &str = "cluster.sessions";
/// Retry rounds dispatched after a session timeout.
pub const CLUSTER_RETRIES: &str = "cluster.retries";
/// Sessions resolved `Committed`.
pub const CLUSTER_COMMITTED: &str = "cluster.committed";
/// Sessions resolved `TimedOut` after exhausting retries.
pub const CLUSTER_TIMED_OUT: &str = "cluster.timed_out";
/// Sessions resolved `Unavailable` (coordinator down at dispatch).
pub const CLUSTER_UNAVAILABLE: &str = "cluster.unavailable";
/// Session timers voided before firing (session resolved first).
pub const CLUSTER_TIMERS_CANCELLED: &str = "cluster.timers_cancelled";
/// Measured read sessions submitted (excludes warm-up).
pub const CLUSTER_READS_SUBMITTED: &str = "cluster.reads_submitted";
/// Measured write sessions submitted (excludes warm-up).
pub const CLUSTER_WRITES_SUBMITTED: &str = "cluster.writes_submitted";
/// Quorum systems evaluated by the algebra comparison harness.
pub const ALGEBRA_SYSTEMS_EVALUATED: &str = "algebra.systems_evaluated";
/// Intersection certifications performed (one per evaluated system).
pub const ALGEBRA_INTERSECTION_CHECKS: &str = "algebra.intersection_checks";
/// Certifications that found a violated intersection (must stay 0
/// for every *reported* system — the CI smoke gate asserts it).
pub const ALGEBRA_INTERSECTION_FAILURES: &str = "algebra.intersection_failures";
/// Minimal quorums enumerated across all evaluated systems.
pub const ALGEBRA_QUORUMS_ENUMERATED: &str = "algebra.quorums_enumerated";
/// Multiplicative-weights iterations spent optimizing strategies.
pub const ALGEBRA_STRATEGY_ITERATIONS: &str = "algebra.strategy_iterations";
/// Retry rounds that adopted a different assignment epoch and reset
/// their accumulated pledges (cross-epoch-mixing fix).
pub const CLUSTER_CROSS_EPOCH_RESETS: &str = "cluster.cross_epoch_resets";
/// Phase-1 pledges ignored for carrying a mismatched epoch tag.
pub const CLUSTER_STALE_GRANTS_IGNORED: &str = "cluster.stale_grants_ignored";
/// Canonical states the model checker explored.
pub const MC_STATES_EXPLORED: &str = "mc.states_explored";
/// Transitions (choice executions) the model checker took.
pub const MC_TRANSITIONS: &str = "mc.transitions";
/// Invariant violations found across the exploration.
pub const MC_VIOLATIONS: &str = "mc.violations";
/// Frontier states cut off by the depth bound (0 = exhaustive).
pub const MC_TRUNCATED: &str = "mc.truncated";
/// Explorations aborted by the state-count cap (0 = exhaustive).
pub const MC_CAPPED: &str = "mc.capped";
/// Enabled transitions skipped by partial-order reduction.
pub const MC_POR_SKIPS: &str = "mc.por_skips";
/// Deliveries pruned as provable no-ops (equivalent to drops).
pub const MC_NOOP_SKIPS: &str = "mc.noop_skips";
/// Site permutations in the symmetry group used for canonicalization.
pub const MC_SYMMETRY_PERMS: &str = "mc.symmetry_perms";
/// Deepest BFS layer reached during exploration.
pub const MC_MAX_DEPTH: &str = "mc.max_depth";
/// Bytes of canonical state keys held in the model checker's visited
/// set (exact; one key per explored state).
pub const MC_VISITED_KEY_BYTES: &str = "mc.visited_key_bytes";
/// Most states queued in the model checker's BFS frontier at once.
pub const MC_PEAK_FRONTIER: &str = "mc.peak_frontier";

// ---- keys below were registered when obs-key-registry (quorum-lint)
// ---- made the schema bidirectional; values are byte-identical to the
// ---- literals they replaced, so manifest byte-stability pins hold.

/// Events pushed into a future-event list (both heap and calendar).
pub const DES_EVENTS_SCHEDULED: &str = "des.events_scheduled";
/// Violations that mixed pledges across assignment epochs.
pub const MC_CROSS_EPOCH_VIOLATIONS: &str = "mc.cross_epoch_violations";
/// Stale-read invariant violations found by the checker.
pub const MC_STALE_READ_VIOLATIONS: &str = "mc.stale_read_violations";
/// Concurrent-write invariant violations found by the checker.
pub const MC_MULTI_WRITE_VIOLATIONS: &str = "mc.multi_write_violations";
/// BFS depth of the first invariant violation (gauge; absent if none).
pub const MC_FIRST_VIOLATION_DEPTH: &str = "mc.first_violation_depth";
/// BFS depth of the first cross-epoch violation (gauge).
pub const MC_FIRST_CROSS_EPOCH_DEPTH: &str = "mc.first_cross_epoch_depth";
/// Timer over a model-check ablation sweep.
pub const MC_ABLATE: &str = "mc.ablate";
/// Phase label for a static-assignment replica run.
pub const REPLICA_RUN_STATIC: &str = "replica.run_static";
/// Per-batch duration histogramming in the replica runner.
pub const REPLICA_BATCH: &str = "replica.batch";
/// Replica worker-pool utilization gauge (accounted wall-clock).
pub const REPLICA_THREAD_UTILIZATION: &str = "replica.thread_utilization";
/// Combined (read+write) cluster availability estimate.
pub const CLUSTER_AVAILABILITY: &str = "cluster.availability";
/// Read-session availability estimate.
pub const CLUSTER_READ_AVAILABILITY: &str = "cluster.read_availability";
/// Write-session availability estimate.
pub const CLUSTER_WRITE_AVAILABILITY: &str = "cluster.write_availability";
/// Committed sessions per simulated second.
pub const CLUSTER_GOODPUT: &str = "cluster.goodput";
/// Mean commit latency of read sessions (simulated time).
pub const CLUSTER_READ_LATENCY_MEAN: &str = "cluster.read_latency_mean";
/// Mean commit latency of write sessions (simulated time).
pub const CLUSTER_WRITE_LATENCY_MEAN: &str = "cluster.write_latency_mean";
/// CI half-width of the cluster availability estimate.
pub const CLUSTER_CI_HALF_WIDTH: &str = "cluster.ci_half_width";
/// Read-latency histogram record in the manifest.
pub const CLUSTER_READ_LATENCY: &str = "cluster.read_latency";
/// Write-latency histogram record in the manifest.
pub const CLUSTER_WRITE_LATENCY: &str = "cluster.write_latency";
/// Timer over a whole cluster simulation run.
pub const CLUSTER_RUN: &str = "cluster.run";
/// Per-batch duration histogramming in the cluster runner.
pub const CLUSTER_BATCH: &str = "cluster.batch";
/// Cluster worker-pool utilization gauge (accounted wall-clock).
pub const CLUSTER_THREAD_UTILIZATION: &str = "cluster.thread_utilization";
/// Worker threads the sharded engine used (gauge).
pub const SHARD_THREADS: &str = "shard.threads";
/// Sharded-engine worker-pool utilization gauge.
pub const SHARD_THREAD_UTILIZATION: &str = "shard.thread_utilization";
/// Timer over building the shared failure timeline.
pub const PHASE_TIMELINE_BUILD: &str = "phase.timeline_build";
/// Timer over the batched (SoA stripe) engine run.
pub const PHASE_BATCHED_RUN: &str = "phase.batched_run";
/// Timer over the naive per-access engine run.
pub const PHASE_NAIVE_RUN: &str = "phase.naive_run";
/// Manifest metric: overall availability of the run.
pub const AVAILABILITY: &str = "availability";
/// Manifest metric: read-only availability of the run.
pub const READ_AVAILABILITY: &str = "read_availability";
/// Manifest metric: write availability of the run.
pub const WRITE_AVAILABILITY: &str = "write_availability";
/// Manifest metric: CI half-width of the availability estimate.
pub const CI_HALF_WIDTH: &str = "ci_half_width";
/// Manifest metric: simulated horizon of the throughput run.
pub const HORIZON: &str = "horizon";
/// Manifest metric: batched-engine accesses per wall-clock second.
pub const ACCESSES_PER_SEC: &str = "accesses_per_sec";
/// Manifest metric: batched-engine wall-clock seconds.
pub const BATCHED_WALL_SECS: &str = "batched_wall_secs";
/// Manifest metric: naive-engine accesses per wall-clock second.
pub const NAIVE_ACCESSES_PER_SEC: &str = "naive_accesses_per_sec";
/// Manifest metric: naive-engine wall-clock seconds.
pub const NAIVE_WALL_SECS: &str = "naive_wall_secs";
/// Manifest metric: batched/naive throughput ratio.
pub const SPEEDUP_VS_NAIVE: &str = "speedup_vs_naive";
/// Timer over the long-run reference simulation in validation.
pub const VALIDATE_REFERENCE: &str = "validate.reference";
/// Timer over the validation grid sweep.
pub const VALIDATE_GRID: &str = "validate.grid";
/// Manifest metric: worst |simulated − analytic| availability delta.
pub const VALIDATE_WORST_DELTA: &str = "validate.worst_delta";
/// Manifest metric: CI half-width of the reference simulation.
pub const VALIDATE_REFERENCE_HALF_WIDTH: &str = "validate.reference_half_width";
/// Timer over the read/write-ratio simulation sweep.
pub const RW_RATIO_SIMULATIONS: &str = "rw_ratio.simulations";
/// Manifest metric: fraction of sweeps where the majority end attains.
pub const RW_RATIO_MAJORITY_END_ATTAINS_FRACTION: &str = "rw_ratio.majority_end_attains_fraction";
/// Manifest metric: argmax read-fraction under strict majority.
pub const RW_RATIO_STRICT_MAJORITY_ARGMAX: &str = "rw_ratio.strict_majority_argmax";
/// Manifest metric: max availability delta on the dense topology.
pub const RW_RATIO_DENSE_TOPOLOGY_MAX_DELTA: &str = "rw_ratio.dense_topology_max_delta";
/// Manifest metric: read-fraction α of the comparison run.
pub const ALPHA: &str = "alpha";
/// Manifest metric: best-exact vote-system load at f=2.
pub const LOAD_VOTE_BEST_EXACT_F2: &str = "load.vote-best-exact.f2";
/// Manifest metric: best-exact vote-system load at f=3.
pub const LOAD_VOTE_BEST_EXACT_F3: &str = "load.vote-best-exact.f3";
/// Timer over intersection certification of compared systems.
pub const ALGEBRA_CERTIFY: &str = "algebra.certify";
/// Timer over strategy optimization of compared systems.
pub const ALGEBRA_OPTIMIZE: &str = "algebra.optimize";
/// Phase label for the comparison harness's simulation leg.
pub const ALGEBRA_SIMULATE: &str = "algebra.simulate";
/// Manifest metric: 1 when a structural system beat every vote system.
pub const STRUCTURAL_BEATS_VOTES: &str = "structural_beats_votes";
