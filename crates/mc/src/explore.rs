//! The bounded exhaustive explorer.
//!
//! Breadth-first search over every reachable protocol state of a
//! [`Universe`], driving the *real* [`ProtocolCore`] (the engine's
//! protocol state machines) through a [`BagScheduler`] that turns the
//! transport into enumerable choices: deliver or drop each in-flight
//! message, fire each pending session timer, switch the network mode,
//! dispatch the next scripted access, execute the next scripted install.
//!
//! ## Checked properties
//!
//! * **No cross-epoch vote accumulation** (transition-level): a pledge
//!   accepted into a session must carry the session's epoch, and a retry
//!   that adopts a different epoch must not keep pledges gathered under
//!   the old one. The [`crate::Universe`]'s `mix_epoch_votes` ablation
//!   restores the pre-fix behavior as the negative control.
//! * **Version freshness** (transition-level): the engine's own
//!   [`FreshnessChecker`](quorum_cluster::FreshnessChecker) — a
//!   committed read never returns a version older than the newest write
//!   committed before it started.
//! * **At most one write-capable component** (state-level): in the
//!   current network mode, at most one group can raise `q_w` votes under
//!   any member's installed spec.
//!
//! ## State canonicalization
//!
//! A state is keyed by a canonical byte encoding of its semantic
//! content: site versions/epochs, open-session accumulators, the sorted
//! in-flight multiset, and the script/mode counters. Timer token values
//! and statistics counters are deliberately excluded — they never affect
//! future behavior. With symmetry enabled the key is the minimum
//! encoding over the universe's valid site permutations (those that
//! preserve votes, fix every scripted origin, and map every mode's
//! partition onto itself), quotienting away interchangeable-site
//! symmetry.
//!
//! Every integer field is a LEB128 varint and every record is
//! self-delimiting, so the encoding is prefix-free and therefore
//! injective: two states share a key iff they are the same state up to
//! symmetry. The visited set stores each key exactly once, at its exact
//! length — no fingerprints, no lossy hashing.
//!
//! ## Reduction
//!
//! Two sound prunings, both relying on the fact that no checked
//! invariant ever reads the in-flight bag:
//!
//! 1. **Live-drop subsumption.** Dropping a still-meaningful message is
//!    never explored as a choice. A bagged message only *adds* enabled
//!    transitions — its presence disables nothing — so every trace from
//!    the dropped-state is step-for-step enabled from the kept-state and
//!    reaches cores identical in everything but the bag. Any violation
//!    reachable after a drop is therefore reachable by simply never
//!    delivering the message. (Without this, reachable bag contents
//!    range over all *subsets* of undelivered traffic — a 2^k blow-up
//!    that buys no new behaviors.)
//! 2. **Dead-message auto-drop.** A state containing a *permanently
//!    dead* message — delivery provably a no-op now and in every future
//!    (resolved session, pledge for an epoch the session can never
//!    return to, stale install/deny), or undeliverable forever
//!    (endpoints partitioned with no mode switches left) — has exactly
//!    one successor: dropping it. Delivering is behaviorally identical
//!    to dropping, and the drop commutes with every other transition,
//!    so the singleton ample set preserves all three properties while
//!    merging states that differ only in dead traffic.
//!
//! `--no-reduction` restores the full deliver/drop branching; the
//! explorer's tests pin that both modes certify the same verdicts.

use crate::universe::Universe;
use quorum_cluster::{
    Message, Payload, ProtocolCore, Scheduler, SessionId, SessionPhase, TimerToken,
};
use quorum_core::Access;
use quorum_des::SimTime;
use quorum_obs::Registry;
use std::collections::{BTreeSet, VecDeque};

/// The enumerable transport: sent messages pile up in an in-flight bag,
/// timers in a token-ordered list. The explorer picks which message to
/// deliver or drop and which timer to fire; nothing ever happens
/// spontaneously.
#[derive(Debug, Clone, Default)]
pub struct BagScheduler {
    in_flight: Vec<Message>,
    /// `(token, session)` ascending by token: tokens are issued in
    /// increasing order, so arming a timer appends.
    timers: Vec<(u64, SessionId)>,
    next_token: u64,
}

impl BagScheduler {
    /// The in-flight message bag.
    pub fn in_flight(&self) -> &[Message] {
        &self.in_flight
    }

    /// Sessions with a pending timer, ordered by token age.
    pub fn pending_timers(&self) -> &[(u64, SessionId)] {
        &self.timers
    }

    /// Removes the pending timer `token`, returning its session.
    fn take_timer(&mut self, token: u64) -> Option<SessionId> {
        let i = self.timers.binary_search_by_key(&token, |&(t, _)| t).ok()?;
        Some(self.timers.remove(i).1)
    }
}

impl Scheduler for BagScheduler {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, msg: Message) -> bool {
        self.in_flight.push(msg);
        true
    }

    fn arm_timer(&mut self, id: SessionId, _timeout: f64) -> TimerToken {
        let raw = self.next_token;
        self.next_token += 1;
        self.timers.push((raw, id));
        TimerToken::new(raw)
    }

    fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.take_timer(token.raw()).is_some()
    }
}

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A pledge from a different epoch was accepted, or a retry kept
    /// accumulators across an epoch change.
    CrossEpochMixing,
    /// A committed read returned a stale version (engine checker).
    StaleRead,
    /// More than one component could raise a write quorum.
    MultiWriteComponent,
}

/// Exploration knobs (the universe supplies defaults for the bounds).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Run the engine with the cross-epoch-mixing ablation (pre-fix
    /// behavior) as the negative control.
    pub mix_epoch_votes: bool,
    /// Enable the dead-message ample-set reduction.
    pub reduction: bool,
    /// Enable the site-symmetry quotient.
    pub symmetry: bool,
    /// Override the universe's BFS depth bound.
    pub max_depth: Option<u32>,
    /// Override the universe's explored-state cap.
    pub max_states: Option<u64>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            mix_epoch_votes: false,
            reduction: true,
            symmetry: true,
            max_depth: None,
            max_states: None,
        }
    }
}

/// What one exploration found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McReport {
    /// Distinct canonical states visited (including the root).
    pub states_explored: u64,
    /// Transitions executed (including ones reaching visited states).
    pub transitions: u64,
    /// Cross-epoch-mixing violations observed on transitions.
    pub cross_epoch_violations: u64,
    /// Freshness violations observed on transitions.
    pub stale_read_violations: u64,
    /// States with more than one write-capable component.
    pub multi_write_violations: u64,
    /// BFS depth of the first violation of any kind.
    pub first_violation_depth: Option<u32>,
    /// BFS depth of the first cross-epoch-mixing violation.
    pub first_cross_epoch_depth: Option<u32>,
    /// States whose successors were cut off by the depth bound
    /// (0 means the exploration was exhaustive in depth).
    pub truncated: u64,
    /// Whether the state cap aborted the exploration (false means
    /// exhaustive in breadth).
    pub capped: bool,
    /// Drop choices of live messages pruned by the subsumption
    /// reduction (a bagged message only adds behaviors, so dropping it
    /// explores nothing new).
    pub por_skips: u64,
    /// Permanently dead or undeliverable messages auto-dropped by the
    /// reduction (the drop becomes the state's single successor).
    pub noop_skips: u64,
    /// Size of the symmetry group used for canonicalization.
    pub symmetry_perms: u64,
    /// Deepest BFS layer reached.
    pub max_depth_seen: u32,
    /// Total bytes of the canonical keys held in the visited set (one
    /// key per explored state).
    pub visited_key_bytes: u64,
    /// Most states queued in the BFS frontier at once.
    pub peak_frontier: u64,
}

impl McReport {
    /// Total violations of all kinds.
    pub fn violations(&self) -> u64 {
        self.cross_epoch_violations + self.stale_read_violations + self.multi_write_violations
    }

    /// True iff the run visited every reachable state within bounds —
    /// nothing depth-truncated, nothing cut by the state cap.
    pub fn exhaustive(&self) -> bool {
        self.truncated == 0 && !self.capped
    }

    /// Publishes the counters under the `mc.*` observability keys.
    pub fn observe_into(&self, registry: &Registry) {
        use quorum_obs::keys;
        registry.add(keys::MC_STATES_EXPLORED, self.states_explored);
        registry.add(keys::MC_TRANSITIONS, self.transitions);
        registry.add(keys::MC_VIOLATIONS, self.violations());
        registry.add(keys::MC_TRUNCATED, self.truncated);
        registry.add(keys::MC_CAPPED, u64::from(self.capped));
        registry.add(keys::MC_POR_SKIPS, self.por_skips);
        registry.add(keys::MC_NOOP_SKIPS, self.noop_skips);
        registry.add(keys::MC_SYMMETRY_PERMS, self.symmetry_perms);
        registry.add(keys::MC_MAX_DEPTH, u64::from(self.max_depth_seen));
        registry.add(keys::MC_CROSS_EPOCH_VIOLATIONS, self.cross_epoch_violations);
        registry.add(keys::MC_STALE_READ_VIOLATIONS, self.stale_read_violations);
        registry.add(keys::MC_MULTI_WRITE_VIOLATIONS, self.multi_write_violations);
        registry.add(keys::MC_VISITED_KEY_BYTES, self.visited_key_bytes);
        registry.add(keys::MC_PEAK_FRONTIER, self.peak_frontier);
        if let Some(d) = self.first_violation_depth {
            registry.set_gauge(keys::MC_FIRST_VIOLATION_DEPTH, d as f64);
        }
        if let Some(d) = self.first_cross_epoch_depth {
            registry.set_gauge(keys::MC_FIRST_CROSS_EPOCH_DEPTH, d as f64);
        }
    }

    fn record(&mut self, kind: ViolationKind, depth: u32) {
        match kind {
            ViolationKind::CrossEpochMixing => {
                self.cross_epoch_violations += 1;
                if self.first_cross_epoch_depth.is_none_or(|d| depth < d) {
                    self.first_cross_epoch_depth = Some(depth);
                }
            }
            ViolationKind::StaleRead => self.stale_read_violations += 1,
            ViolationKind::MultiWriteComponent => self.multi_write_violations += 1,
        }
        if self.first_violation_depth.is_none_or(|d| depth < d) {
            self.first_violation_depth = Some(depth);
        }
    }
}

/// One node of the search: the protocol core plus everything the core
/// delegates to the environment.
#[derive(Clone)]
struct McState<'a> {
    core: ProtocolCore<'a>,
    sched: BagScheduler,
    mode: usize,
    net_changes: u32,
    next_access: usize,
    next_install: usize,
}

/// One enabled transition.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Deliver(usize),
    Drop(usize),
    Timer(u64),
    NetMode(usize),
    Access,
    Install,
}

/// Immutable exploration context.
struct Ctx<'a> {
    universe: &'a Universe,
    mix: bool,
    /// Per mode: site index → group index.
    site_group: Vec<Vec<usize>>,
    /// Valid site permutations (always contains the identity).
    perms: Vec<Vec<usize>>,
    /// `inverses[k]` is the inverse of `perms[k]`.
    inverses: Vec<Vec<usize>>,
}

impl Ctx<'_> {
    fn connected(&self, mode: usize, a: usize, b: usize) -> bool {
        self.site_group[mode][a] == self.site_group[mode][b]
    }
}

/// Site permutations preserving the universe's structure: equal votes,
/// every scripted origin fixed, every mode's partition mapped onto
/// itself. Renaming sites along such a permutation is a bisimulation.
fn valid_perms(u: &Universe) -> Vec<Vec<usize>> {
    let n = u.num_sites();
    let mut fixed = vec![false; n];
    for &(o, _) in &u.accesses {
        fixed[o] = true;
    }
    for &(o, _) in &u.installs {
        fixed[o] = true;
    }
    let canon_modes: Vec<BTreeSet<Vec<usize>>> = u
        .modes
        .iter()
        .map(|groups| {
            groups
                .iter()
                .map(|g| {
                    let mut g = g.clone();
                    g.sort_unstable();
                    g
                })
                .collect()
        })
        .collect();
    let mut perms = Vec::new();
    let mut p: Vec<usize> = (0..n).collect();
    permute(&mut p, 0, &mut |perm| {
        let ok = (0..n).all(|i| {
            (!fixed[i] || perm[i] == i) && u.votes.votes_of(perm[i]) == u.votes.votes_of(i)
        }) && u.modes.iter().zip(&canon_modes).all(|(groups, canon)| {
            groups.iter().all(|g| {
                let mut mapped: Vec<usize> = g.iter().map(|&s| perm[s]).collect();
                mapped.sort_unstable();
                canon.contains(&mapped)
            })
        });
        if ok {
            perms.push(perm.to_vec());
        }
    });
    perms.sort();
    perms
}

/// Visits every permutation of `p[k..]` (Heap-style recursion).
fn permute(p: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == p.len() {
        visit(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, visit);
        p.swap(k, i);
    }
}

/// Longest LEB128 encoding of a `u64`.
const VARINT_MAX: usize = 10;
/// Longest message encoding: endpoints and session id, then the largest
/// payload (tag, kind, three integers).
const MSG_KEY_MAX: usize = 3 * VARINT_MAX + 2 + 3 * VARINT_MAX;

/// Byte sink for canonical keys.
trait KeyWriter {
    fn put(&mut self, byte: u8);

    /// LEB128: seven bits per byte, low group first, the high bit set on
    /// every byte but the last. Prefix-free, so a key built from varints
    /// and fixed-width bytes decodes uniquely.
    fn put_varint(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.put((x & 0x7F) as u8 | 0x80);
            x >>= 7;
        }
        self.put(x as u8);
    }

    fn put_index(&mut self, i: usize) {
        self.put_varint(i as u64);
    }
}

impl KeyWriter for Vec<u8> {
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
}

/// One in-flight message's encoding, built on the stack so sorting the
/// bag allocates nothing per message.
struct MsgKey {
    bytes: [u8; MSG_KEY_MAX],
    len: usize,
}

impl MsgKey {
    fn new(perm: &[usize], m: &Message) -> Self {
        let mut k = Self {
            bytes: [0; MSG_KEY_MAX],
            len: 0,
        };
        k.put_index(perm[m.from]);
        k.put_index(perm[m.to]);
        k.put_varint(m.session);
        encode_payload(&mut k, &m.payload);
        k
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl KeyWriter for MsgKey {
    fn put(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }
}

fn encode_payload(out: &mut impl KeyWriter, payload: &Payload) {
    match *payload {
        Payload::VoteRequest {
            kind,
            epoch,
            epoch_spec,
        } => {
            out.put(0);
            out.put(kind as u8);
            out.put_varint(epoch);
            out.put_varint(epoch_spec.q_r());
            out.put_varint(epoch_spec.q_w());
        }
        Payload::ReadValue {
            votes,
            version,
            epoch,
        } => {
            out.put(1);
            out.put_varint(votes);
            out.put_varint(version);
            out.put_varint(epoch);
        }
        Payload::VoteGrant {
            votes,
            version,
            epoch,
        } => {
            out.put(2);
            out.put_varint(votes);
            out.put_varint(version);
            out.put_varint(epoch);
        }
        Payload::VoteDeny { epoch, epoch_spec } => {
            out.put(3);
            out.put_varint(epoch);
            out.put_varint(epoch_spec.q_r());
            out.put_varint(epoch_spec.q_w());
        }
        Payload::WriteCommit { version } => {
            out.put(4);
            out.put_varint(version);
        }
        Payload::CommitAck { votes } => {
            out.put(5);
            out.put_varint(votes);
        }
        Payload::Install { epoch, epoch_spec } => {
            out.put(6);
            out.put_varint(epoch);
            out.put_varint(epoch_spec.q_r());
            out.put_varint(epoch_spec.q_w());
        }
    }
}

/// Encodes the state's semantic content under the site renaming `perm`
/// (with inverse `inv`) into `out`, replacing its contents. Timer token
/// values, statistics, and clock are excluded: they never affect future
/// protocol behavior.
///
/// Layout: the four script/mode counters; per site its version and
/// epoch; the open-session count, then one record per session; the
/// in-flight messages sorted by their encodings, to the end of the key.
/// Each record has a fixed field sequence, so the whole key parses back
/// uniquely.
fn encode(st: &McState<'_>, perm: &[usize], inv: &[usize], out: &mut Vec<u8>) {
    out.clear();
    out.put_index(st.mode);
    out.put_varint(u64::from(st.net_changes));
    out.put_index(st.next_access);
    out.put_index(st.next_install);
    for &orig in inv {
        let v = st.core.site_view(orig);
        out.put_varint(v.version);
        out.put_varint(v.epoch);
    }
    out.put_index(st.core.open_sessions());
    for id in st.core.session_ids() {
        let v = st.core.session_view(id).expect("listed session is open");
        out.put_varint(id);
        out.put_index(perm[v.origin]);
        out.put(match v.kind {
            Access::Read => 0,
            Access::Write => 1,
        });
        out.put(match v.phase {
            SessionPhase::Gather => 0,
            SessionPhase::Commit => 1,
        });
        out.put_varint(u64::from(v.round));
        out.put_varint(v.votes);
        for &orig in inv {
            out.put(u8::from(v.contributed[orig]));
        }
        out.put_varint(v.epoch);
        out.put_varint(v.max_version);
        out.put_varint(v.new_version);
        out.put(u8::from(st.sched.timers.iter().any(|&(_, s)| s == id)));
    }
    let mut msgs: Vec<MsgKey> = st
        .sched
        .in_flight
        .iter()
        .map(|m| MsgKey::new(perm, m))
        .collect();
    msgs.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    for m in &msgs {
        out.extend_from_slice(m.as_bytes());
    }
}

/// The canonical key: minimum encoding over the symmetry group, stored
/// at its exact length.
fn canonical_key(ctx: &Ctx<'_>, st: &McState<'_>) -> Box<[u8]> {
    let mut best = Vec::with_capacity(128);
    let mut candidate = Vec::new();
    encode(st, &ctx.perms[0], &ctx.inverses[0], &mut best);
    for (perm, inv) in ctx.perms.iter().zip(&ctx.inverses).skip(1) {
        encode(st, perm, inv, &mut candidate);
        if candidate < best {
            std::mem::swap(&mut best, &mut candidate);
        }
    }
    best.into_boxed_slice()
}

/// Is delivering `msg` a no-op now *and in every future*? Such a message
/// is behaviorally a drop, and dropping it commutes with everything.
///
/// The permanence arguments: session ids are never reused; a session's
/// phase never returns from `Commit` to `Gather`; epochs (session and
/// site) are monotone, so a pledge tagged below the session's epoch can
/// never match again (under the fix), and a session that resets its
/// accumulators on adoption simultaneously moves its epoch above every
/// stale pledge's tag.
fn permanently_dead(core: &ProtocolCore<'_>, mix: bool, msg: &Message) -> bool {
    match msg.payload {
        Payload::ReadValue { epoch, .. } | Payload::VoteGrant { epoch, .. } => {
            let Some(v) = core.session_view(msg.session) else {
                return true; // resolved sessions never reopen
            };
            if v.phase == SessionPhase::Commit {
                return true; // phase never goes back to Gather
            }
            if !mix && epoch < v.epoch {
                return true; // session epoch is monotone
            }
            if v.contributed[msg.from] && (mix || epoch == v.epoch) {
                // Under the ablation `contributed` never resets within
                // Gather; under the fix a reset would bump the session
                // epoch above this pledge's tag anyway.
                return true;
            }
            false
        }
        Payload::CommitAck { .. } => core.session_view(msg.session).is_none(),
        // Deny/install adoption requires a strictly newer epoch, and the
        // receiver's installed epoch is monotone.
        Payload::VoteDeny { epoch, .. } | Payload::Install { epoch, .. } => {
            epoch <= core.site_view(msg.to).epoch
        }
        // Requests always produce a reply; commits always produce an ack.
        Payload::VoteRequest { .. } | Payload::WriteCommit { .. } => false,
    }
}

/// All enabled transitions, in deterministic order. With reduction on,
/// a state holding a permanently dead (or forever-undeliverable)
/// message collapses to the single choice of dropping it, and explicit
/// drops of live messages are pruned entirely (see module docs).
fn choices(ctx: &Ctx<'_>, st: &McState<'_>, reduction: bool, report: &mut McReport) -> Vec<Choice> {
    if reduction {
        if let Some(i) = st.sched.in_flight.iter().position(|m| {
            permanently_dead(&st.core, ctx.mix, m)
                || (!ctx.connected(st.mode, m.from, m.to)
                    && st.net_changes >= ctx.universe.max_net_changes)
        }) {
            report.noop_skips += 1;
            return vec![Choice::Drop(i)];
        }
    }
    let mut cs = Vec::new();
    for (i, m) in st.sched.in_flight.iter().enumerate() {
        if ctx.connected(st.mode, m.from, m.to) {
            cs.push(Choice::Deliver(i));
        }
        if reduction {
            report.por_skips += 1;
        } else {
            cs.push(Choice::Drop(i));
        }
    }
    for &(tok, _) in &st.sched.timers {
        cs.push(Choice::Timer(tok));
    }
    if st.net_changes < ctx.universe.max_net_changes {
        for m in 0..ctx.universe.modes.len() {
            if m != st.mode {
                cs.push(Choice::NetMode(m));
            }
        }
    }
    if st.next_access < ctx.universe.accesses.len() {
        cs.push(Choice::Access);
    }
    if st.next_install < ctx.universe.installs.len() {
        cs.push(Choice::Install);
    }
    cs
}

/// Does the state have any enabled transition at all? (Used to decide
/// whether a depth cutoff actually truncated anything.)
fn has_choices(ctx: &Ctx<'_>, st: &McState<'_>) -> bool {
    !st.sched.in_flight.is_empty()
        || !st.sched.timers.is_empty()
        || st.next_access < ctx.universe.accesses.len()
        || st.next_install < ctx.universe.installs.len()
        || (st.net_changes < ctx.universe.max_net_changes && ctx.universe.modes.len() > 1)
}

/// Executes one transition on a clone of `st`, appending any
/// transition-level violations to `viols`.
fn step<'a>(
    ctx: &Ctx<'_>,
    st: &McState<'a>,
    choice: Choice,
    viols: &mut Vec<ViolationKind>,
) -> McState<'a> {
    let mut s = st.clone();
    let fresh_before = s.core.checker().violations();
    match choice {
        Choice::Deliver(i) => {
            let msg = s.sched.in_flight.remove(i);
            // Pre-capture: is this an eligible pledge, and under which
            // epoch is the session gathering right now?
            let pledge = match msg.payload {
                Payload::ReadValue { epoch, .. } | Payload::VoteGrant { epoch, .. } => s
                    .core
                    .session_view(msg.session)
                    .filter(|v| v.phase == SessionPhase::Gather && !v.contributed[msg.from])
                    .map(|v| (v.epoch, epoch)),
                _ => None,
            };
            s.core.stats_mut().messages_delivered += 1;
            {
                let McState { core, sched, .. } = &mut s;
                core.handle_message(msg, sched);
            }
            if let Some((session_epoch, msg_epoch)) = pledge {
                // Accepted iff the session resolved, advanced to its
                // commit phase, or marked the sender as contributed —
                // a rejected pledge leaves all three unchanged.
                let accepted = match s.core.session_view(msg.session) {
                    None => true,
                    Some(v) => v.phase == SessionPhase::Commit || v.contributed[msg.from],
                };
                if accepted && msg_epoch != session_epoch {
                    viols.push(ViolationKind::CrossEpochMixing);
                }
            }
        }
        Choice::Drop(i) => {
            s.sched.in_flight.remove(i);
            s.core.stats_mut().messages_dropped += 1;
        }
        Choice::Timer(tok) => {
            let id = s
                .sched
                .take_timer(tok)
                .expect("enumerated timers are pending");
            let pre = s.core.session_view(id).map(|v| (v.epoch, v.origin));
            {
                let McState { core, sched, .. } = &mut s;
                core.session_timeout(id, true, sched);
            }
            if let Some((epoch_before, origin)) = pre {
                if let Some(v) = s.core.session_view(id) {
                    // A retry that adopted a different epoch must hold
                    // exactly the coordinator's own re-seeded pledge;
                    // anything more is accumulation carried across
                    // epochs.
                    if v.epoch != epoch_before && v.votes > ctx.universe.votes.votes_of(origin) {
                        viols.push(ViolationKind::CrossEpochMixing);
                    }
                }
            }
        }
        Choice::NetMode(m) => {
            s.mode = m;
            s.net_changes += 1;
        }
        Choice::Access => {
            let (origin, kind) = ctx.universe.accesses[s.next_access];
            let index = s.next_access as u64;
            s.next_access += 1;
            match kind {
                Access::Read => s.core.stats_mut().reads_submitted += 1,
                Access::Write => s.core.stats_mut().writes_submitted += 1,
            }
            let McState { core, sched, .. } = &mut s;
            core.open_session(origin, kind, Some(index), sched);
        }
        Choice::Install => {
            let (origin, spec) = ctx.universe.installs[s.next_install];
            let epoch = (s.next_install + 1) as u64;
            s.next_install += 1;
            let McState { core, sched, .. } = &mut s;
            core.apply_install(origin, epoch, spec, sched);
        }
    }
    if s.core.checker().violations() > fresh_before {
        viols.push(ViolationKind::StaleRead);
    }
    s
}

/// Can more than one component of the current mode raise a write quorum
/// under some member's installed spec? Every §2.1 spec has `2·q_w > T`,
/// and jointly-safe installs keep cross-epoch write quorums
/// intersecting, so this must never happen.
fn multi_write_component(ctx: &Ctx<'_>, st: &McState<'_>) -> bool {
    let mut capable = 0u32;
    for group in &ctx.universe.modes[st.mode] {
        let votes_in: u64 = group.iter().map(|&i| ctx.universe.votes.votes_of(i)).sum();
        if group
            .iter()
            .any(|&i| votes_in >= st.core.site_view(i).spec.q_w())
        {
            capable += 1;
        }
    }
    capable > 1
}

/// Explores every reachable state of `universe` within the bounds and
/// reports what it found. Deterministic: identical inputs produce an
/// identical [`McReport`].
///
/// # Panics
/// Panics if the universe fails [`Universe::validate`].
pub fn explore(universe: &Universe, opts: &ExploreOptions) -> McReport {
    universe.validate();
    let cfg = universe.config(opts.mix_epoch_votes);
    let n = universe.num_sites();
    let site_group = universe
        .modes
        .iter()
        .map(|groups| {
            let mut g = vec![0usize; n];
            for (gi, group) in groups.iter().enumerate() {
                for &s in group {
                    g[s] = gi;
                }
            }
            g
        })
        .collect();
    let perms = if opts.symmetry {
        valid_perms(universe)
    } else {
        vec![(0..n).collect()]
    };
    let inverses = perms
        .iter()
        .map(|perm| {
            let mut inv = vec![0; n];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            inv
        })
        .collect();
    let ctx = Ctx {
        universe,
        mix: opts.mix_epoch_votes,
        site_group,
        perms,
        inverses,
    };
    let max_depth = opts.max_depth.unwrap_or(universe.max_depth);
    let max_states = opts.max_states.unwrap_or(universe.max_states);

    let mut report = McReport {
        symmetry_perms: ctx.perms.len() as u64,
        ..McReport::default()
    };

    let root = McState {
        core: ProtocolCore::new(&cfg, &universe.votes, universe.initial_spec),
        sched: BagScheduler::default(),
        mode: 0,
        net_changes: 0,
        next_access: 0,
        next_install: 0,
    };
    if multi_write_component(&ctx, &root) {
        report.record(ViolationKind::MultiWriteComponent, 0);
    }
    let mut visited: BTreeSet<Box<[u8]>> = BTreeSet::new();
    let root_key = canonical_key(&ctx, &root);
    report.visited_key_bytes = root_key.len() as u64;
    visited.insert(root_key);
    report.states_explored = 1;
    let mut frontier: VecDeque<(McState<'_>, u32)> = VecDeque::new();
    frontier.push_back((root, 0));
    report.peak_frontier = 1;

    'bfs: while let Some((st, depth)) = frontier.pop_front() {
        report.max_depth_seen = report.max_depth_seen.max(depth);
        if depth >= max_depth {
            if has_choices(&ctx, &st) {
                report.truncated += 1;
            }
            continue;
        }
        for choice in choices(&ctx, &st, opts.reduction, &mut report) {
            report.transitions += 1;
            let mut viols = Vec::new();
            let next = step(&ctx, &st, choice, &mut viols);
            for kind in viols {
                report.record(kind, depth + 1);
            }
            let key = canonical_key(&ctx, &next);
            let key_len = key.len() as u64;
            if visited.insert(key) {
                report.visited_key_bytes += key_len;
                if multi_write_component(&ctx, &next) {
                    report.record(ViolationKind::MultiWriteComponent, depth + 1);
                }
                report.states_explored += 1;
                if report.states_explored >= max_states {
                    report.capped = true;
                    break 'bfs;
                }
                frontier.push_back((next, depth + 1));
                report.peak_frontier = report.peak_frontier.max(frontier.len() as u64);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_universe_has_a_nontrivial_group() {
        let perms = valid_perms(&Universe::symmetric());
        // Identity plus the 1↔2 swap (site 0 is the scripted origin).
        assert_eq!(perms.len(), 2);
        assert!(perms.contains(&vec![0, 1, 2]));
        assert!(perms.contains(&vec![0, 2, 1]));
    }

    #[test]
    fn standard_universe_group_is_trivial() {
        // All three sites are scripted origins: nothing to quotient.
        let perms = valid_perms(&Universe::standard());
        assert_eq!(perms, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn symmetric_universe_explores_clean_and_exhaustively() {
        let u = Universe::symmetric();
        let report = explore(&u, &ExploreOptions::default());
        assert!(report.exhaustive(), "{report:?}");
        assert_eq!(report.violations(), 0, "{report:?}");
        assert!(report.states_explored > 10);
        assert!(report.transitions >= report.states_explored - 1);
    }

    #[test]
    fn symmetry_quotient_shrinks_the_state_space() {
        let u = Universe::symmetric();
        let with = explore(&u, &ExploreOptions::default());
        let without = explore(
            &u,
            &ExploreOptions {
                symmetry: false,
                ..ExploreOptions::default()
            },
        );
        assert!(with.exhaustive() && without.exhaustive());
        assert!(
            with.states_explored < without.states_explored,
            "quotient {} vs full {}",
            with.states_explored,
            without.states_explored
        );
        // Both certify the same (absence of) violations.
        assert_eq!(with.violations(), 0);
        assert_eq!(without.violations(), 0);
    }

    #[test]
    fn exploration_is_deterministic() {
        let u = Universe::symmetric();
        let a = explore(&u, &ExploreOptions::default());
        let b = explore(&u, &ExploreOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let u = Universe::symmetric();
        let report = explore(
            &u,
            &ExploreOptions {
                max_depth: Some(2),
                ..ExploreOptions::default()
            },
        );
        assert!(report.truncated > 0);
        assert!(!report.exhaustive());
    }

    #[test]
    fn state_cap_reports_capping() {
        let u = Universe::symmetric();
        let report = explore(
            &u,
            &ExploreOptions {
                max_states: Some(5),
                ..ExploreOptions::default()
            },
        );
        assert!(report.capped);
        assert!(!report.exhaustive());
        assert_eq!(report.states_explored, 5);
    }

    #[test]
    fn cancel_timer_reports_only_pending_tokens() {
        let mut sched = BagScheduler::default();
        let a = sched.arm_timer(7, 1.0);
        let b = sched.arm_timer(8, 1.0);
        let c = sched.arm_timer(9, 1.0);
        assert!(sched.cancel_timer(b));
        assert!(!sched.cancel_timer(b), "already cancelled");
        assert!(!sched.cancel_timer(TimerToken::new(99)), "never issued");
        assert_eq!(sched.take_timer(a.raw()), Some(7));
        assert!(!sched.cancel_timer(a), "already fired");
        assert_eq!(sched.pending_timers(), &[(c.raw(), 9)]);
    }

    fn varint(x: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_varint(x);
        out
    }

    #[test]
    fn varint_writer_encodes_group_boundaries() {
        assert_eq!(varint(0), [0x00]);
        assert_eq!(varint(127), [0x7F]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(16_383), [0xFF, 0x7F]);
        assert_eq!(varint(16_384), [0x80, 0x80, 0x01]);
        let max = varint(u64::MAX);
        assert_eq!(max.len(), VARINT_MAX);
        assert_eq!(max[..9], [0xFF; 9]);
        assert_eq!(max[9], 0x01);
    }

    #[test]
    fn varint_writer_is_prefix_free() {
        let values = [0, 1, 127, 128, 255, 256, 16_383, 16_384, 1 << 35, u64::MAX];
        for &a in &values {
            for &b in &values {
                let (ea, eb) = (varint(a), varint(b));
                assert_eq!(eb.starts_with(&ea), a == b, "{a} vs {b}");
            }
        }
    }
}
