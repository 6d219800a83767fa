//! The fault-injection plane: declarative, seeded fault plans consulted at
//! the round barrier.
//!
//! A [`FaultPlan`] describes six fault classes, all deterministic for a
//! given plan:
//!
//! * **seeded message drops** — every delivered message is dropped with a
//!   fixed probability, decided by a dedicated PRNG stream derived from the
//!   plan's seed (never from the nodes' private streams, so installing a
//!   plan does not perturb protocol randomness);
//! * **per-link outage windows** — all messages *sent* on a given undirected
//!   link during a half-open round window `[from, until)` are dropped
//!   (outages are judged at the send round: a latency-delayed message
//!   already in flight when a window opens is not retroactively lost);
//! * **per-link latency** — messages crossing a given undirected link are
//!   delivered a fixed number of rounds late, which reorders them relative
//!   to traffic on faster links (the delivery queue spans rounds; see
//!   below);
//! * **crash-stop nodes** — from its crash round on, a node performs no
//!   computation ([`SyncRuntime`](crate::runtime::SyncRuntime) skips its
//!   callbacks) and every message from or to it is dropped;
//! * **crash-recovery windows** — a node is down during `[from, until)` and
//!   resumes at round `until` with whatever state its
//!   [`NodeProgram::on_recover`](crate::runtime::NodeProgram::on_recover)
//!   hook reconstructs (the default keeps the pre-crash state);
//! * **adversarial drop scheduling** — instead of (or on top of) the
//!   uniform drop lottery, a seeded scheduler strikes up to `k` messages
//!   per round chosen among those crossing a directed link **for the first
//!   time in the run** — the protocol's frontier — which is where a flood
//!   or an election actually makes progress. The scheduler draws from its
//!   own stream, seeded from the plan seed XOR-ed with a salt and
//!   instantiated only when `k > 0`, so a `k = 0` adversary is
//!   byte-identical to no plan at all. Struck messages are dropped *before*
//!   the uniform drop lottery would run, so the drop stream is not consumed
//!   for them.
//!
//! # Determinism and delivery order
//!
//! Fault decisions are made exclusively inside
//! [`Network::advance_round`](crate::Network::advance_round), in **delivery
//! order**, which is send order: the network's one pending buffer, front to
//! back. The sends of a seeded run are deterministic, so the drop PRNG
//! stream, every fault decision, the fault counters in
//! [`Metrics`](crate::Metrics), and the emitted [`TraceEvent`]s are too.
//! Messages delayed by link latency are parked on a cross-round queue, in a
//! FIFO bucket per due round, in that same delivery order; a later barrier
//! drains the buckets in due order and each in parking order, so the drain
//! order is deterministic as well. The workspace fault-plane test suite
//! pins this with golden runs, together with the stronger property that
//! installing an *empty* plan leaves a run byte-identical to the pristine
//! fault-free path.
//!
//! # Round numbering
//!
//! Fault rounds count delivery barriers, aligned with the
//! [`RoundContext::round`](crate::runtime::RoundContext) numbering of the
//! runtime: messages queued by round-`r` callbacks are judged with fault
//! clock `r`, and a node with crash round `r` executes nothing from round
//! `r` on. A node with a recovery window `[from, until)` executes again from
//! round `until` on; messages that would be observed exactly at round
//! `until` were addressed to the pre-reboot incarnation and are dropped
//! (`ReceiverCrashed`), so a recovering node always starts from an empty
//! inbox. [`Network::skip_rounds`](crate::Network::skip_rounds) advances the
//! fault clock by the skipped amount, so outage windows, latencies, and
//! crash rounds stay aligned with protocol round numbers for the quantum
//! subroutines too.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, NodeId, Port};
use crate::metrics::MetricsRecorder;

/// Seed salt for the dedicated adversarial drop-scheduler stream (the drop
/// stream uses the plan seed unsalted, so the streams never collide).
const ADVERSARY_STREAM_SALT: u64 = 0x4144_565f_4452_4f50; // "ADV_DROP"

/// A declarative fault schedule for one network execution. Built with the
/// fluent methods below; installed via
/// [`Network::set_fault_plan`](crate::Network::set_fault_plan) (or
/// [`SyncRuntime::set_fault_plan`](crate::runtime::SyncRuntime::set_fault_plan))
/// before the first round.
///
/// ```
/// use congest_net::FaultPlan;
///
/// // Drop 5% of messages, take link {0, 1} down for rounds 2..10, delay
/// // link {2, 3} by 3 rounds, crash node 7 for good at round 4, crash
/// // node 5 at round 1 with recovery at round 6, and strike 2 frontier
/// // links per round.
/// let plan = FaultPlan::new(9)
///     .drop_probability(0.05)
///     .link_outage(0, 1, 2, 10)
///     .link_latency(2, 3, 3)
///     .crash(7, 4)
///     .crash_recover(5, 1, 6)
///     .adversarial_drops(2);
/// assert!(!plan.is_empty());
/// assert_eq!(plan.latencies().len(), 1);
/// assert_eq!(plan.crashes().len(), 2);
/// assert_eq!(plan.adversarial_drops_per_round(), 2);
///
/// // A freshly seeded plan injects nothing; installing it is byte-identical
/// // to installing no plan at all.
/// assert!(FaultPlan::new(9).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_probability: f64,
    outages: Vec<LinkOutage>,
    latencies: Vec<LinkLatency>,
    crashes: Vec<CrashPoint>,
    adversarial_drops: u64,
}

/// An outage window on one undirected link: every message *sent* on the
/// link (in either direction) during rounds `from_round..until_round` is
/// dropped. The window is judged at the send round, so on a link that also
/// has a [`LinkLatency`] fault, a message sent before the window opens is
/// delivered at its due barrier even if its flight time overlaps the
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint of the link.
    pub b: NodeId,
    /// First round of the outage (inclusive).
    pub from_round: u64,
    /// End of the outage (exclusive).
    pub until_round: u64,
}

/// A latency fault on one undirected link: every message crossing the link
/// (in either direction) is delivered `delay_rounds` rounds later than
/// normal, in both directions, for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLatency {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint of the link.
    pub b: NodeId,
    /// Extra delivery delay in rounds (`0` behaves like no entry at all).
    pub delay_rounds: u64,
}

/// A crash fault: `node` executes nothing during `round..recover_round` and
/// every message from or to it in that window is dropped. A
/// `recover_round` of `u64::MAX` is a classic crash-stop; a finite one is a
/// crash-recovery window, after which the node executes again (its program
/// state is whatever [`NodeProgram::on_recover`](crate::runtime::NodeProgram::on_recover)
/// reconstructs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The crashing node.
    pub node: NodeId,
    /// The first round the node no longer participates in.
    pub round: u64,
    /// The first round the node participates in again (`u64::MAX` = never).
    pub recover_round: u64,
}

impl FaultPlan {
    /// An empty plan whose drop PRNG stream is derived from `seed`.
    ///
    /// An empty plan (no drops, no outages, no latencies, no crashes) is
    /// byte-identical to running without a plan at all — pinned by the
    /// workspace fault-plane suite.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-message drop probability (clamped to `0.0..=1.0`).
    #[must_use]
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self
    }

    /// Adds an outage window on the undirected link `{a, b}` covering rounds
    /// `from_round..until_round`.
    #[must_use]
    pub fn link_outage(mut self, a: NodeId, b: NodeId, from_round: u64, until_round: u64) -> Self {
        self.outages.push(LinkOutage {
            a,
            b,
            from_round,
            until_round,
        });
        self
    }

    /// Adds a latency fault: every message crossing the undirected link
    /// `{a, b}` is delivered `delay_rounds` rounds late. A delay of `0` is
    /// ignored (it would behave exactly like no entry).
    #[must_use]
    pub fn link_latency(mut self, a: NodeId, b: NodeId, delay_rounds: u64) -> Self {
        if delay_rounds > 0 {
            self.latencies.push(LinkLatency { a, b, delay_rounds });
        }
        self
    }

    /// Adds a crash-stop fault: `node` stops participating at `round` and
    /// never comes back.
    #[must_use]
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.crashes.push(CrashPoint {
            node,
            round,
            recover_round: u64::MAX,
        });
        self
    }

    /// Adds a crash-recovery fault: `node` is down during rounds
    /// `round..recover_round` and resumes (with
    /// [`NodeProgram::on_recover`](crate::runtime::NodeProgram::on_recover)-reconstructed
    /// state) at `recover_round`. An empty window (`recover_round <= round`)
    /// is ignored.
    #[must_use]
    pub fn crash_recover(mut self, node: NodeId, round: u64, recover_round: u64) -> Self {
        if recover_round > round {
            self.crashes.push(CrashPoint {
                node,
                round,
                recover_round,
            });
        }
        self
    }

    /// Enables adversarial drop scheduling: at every barrier, up to `k` of
    /// the messages crossing a directed link **for the first time in the
    /// run** (the protocol's frontier) are struck, chosen by a dedicated
    /// seeded scheduler stream. `k = 0` is the identity adversary and is
    /// ignored (it would behave exactly like no adversary at all).
    #[must_use]
    pub fn adversarial_drops(mut self, k: u64) -> Self {
        self.adversarial_drops = k;
        self
    }

    /// Whether the plan injects no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drop_probability == 0.0
            && self.outages.is_empty()
            && self.latencies.is_empty()
            && self.crashes.is_empty()
            && self.adversarial_drops == 0
    }

    /// The seed of the dedicated drop PRNG stream.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-message drop probability.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        self.drop_probability
    }

    /// The configured link outage windows.
    #[must_use]
    pub fn outages(&self) -> &[LinkOutage] {
        &self.outages
    }

    /// The configured link latency faults.
    #[must_use]
    pub fn latencies(&self) -> &[LinkLatency] {
        &self.latencies
    }

    /// The configured crash faults (crash-stop and crash-recovery).
    #[must_use]
    pub fn crashes(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// How many frontier messages the adversarial scheduler strikes per
    /// round (`0` = no adversary).
    #[must_use]
    pub fn adversarial_drops_per_round(&self) -> u64 {
        self.adversarial_drops
    }
}

/// Why a message was dropped at the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The sender had crashed by the send round.
    SenderCrashed,
    /// The receiver is down (or rebooting) at the delivery round.
    ReceiverCrashed,
    /// The link was inside an outage window.
    LinkOutage,
    /// The seeded per-message drop fired.
    RandomDrop,
    /// The adversarial scheduler struck this frontier message.
    Adversarial,
}

impl DropCause {
    /// Every drop cause, in declaration order. The workspace round-trip
    /// property test iterates this array, so a variant added to the enum
    /// (the compiler forces it into [`DropCause::label`]'s match) but
    /// forgotten here fails the companion exhaustiveness test below.
    pub const ALL: [DropCause; 5] = [
        DropCause::SenderCrashed,
        DropCause::ReceiverCrashed,
        DropCause::LinkOutage,
        DropCause::RandomDrop,
        DropCause::Adversarial,
    ];

    /// A stable short label, used by trace serialization.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropCause::SenderCrashed => "sender-crash",
            DropCause::ReceiverCrashed => "receiver-crash",
            DropCause::LinkOutage => "outage",
            DropCause::RandomDrop => "random",
            DropCause::Adversarial => "adversarial",
        }
    }

    /// Parses a label produced by [`DropCause::label`].
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        Some(match label {
            "sender-crash" => DropCause::SenderCrashed,
            "receiver-crash" => DropCause::ReceiverCrashed,
            "outage" => DropCause::LinkOutage,
            "random" => DropCause::RandomDrop,
            "adversarial" => DropCause::Adversarial,
            _ => return None,
        })
    }
}

/// One round-stamped event recorded by the network's trace sink (enabled via
/// [`Network::enable_trace`](crate::Network::enable_trace); off by default,
/// in which case nothing is recorded and nothing allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node reached its crash round.
    NodeCrashed {
        /// The crash round.
        round: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// A node reached the end of its crash-recovery window and executes
    /// again from this round on.
    NodeRecovered {
        /// The recovery round (the first round the node participates in
        /// again).
        round: u64,
        /// The recovered node.
        node: NodeId,
    },
    /// A message was dropped at the delivery barrier.
    MessageDropped {
        /// The send round of the dropped message (for latency-delayed
        /// messages dropped at their due barrier: the due round).
        round: u64,
        /// The sending node.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
        /// Why the message was dropped.
        cause: DropCause,
    },
    /// A message was parked on the cross-round event queue by a link
    /// latency fault.
    MessageDelayed {
        /// The send round of the delayed message.
        round: u64,
        /// The sending node.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
        /// Extra delivery delay in rounds beyond the normal next-round
        /// delivery.
        delay: u64,
    },
    /// A message was parked on the event queue by the scheduler adversary of
    /// the event-driven execution mode (see the [`event`](crate::event)
    /// module). Like `MessageDelayed` but chosen by the scheduler's policy
    /// rather than a fault-plan latency; the two never tally the same
    /// message (a fault-delayed message keeps its fault delay).
    MessageScheduled {
        /// The send round of the scheduled message.
        round: u64,
        /// The sending node.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
        /// Extra delivery delay in ticks beyond the normal next-round
        /// delivery.
        delay: u64,
    },
}

/// The fate of one judged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver at this barrier, as usual.
    Deliver,
    /// Park on the cross-round event queue; deliver this many rounds late.
    Delay(u64),
    /// Drop, for the given cause.
    Drop(DropCause),
}

/// A per-node, read-only window onto the installed fault plan's crash
/// schedule, handed to [`RoundContext`](crate::runtime::RoundContext) so
/// node programs can observe which of their neighbours are currently down.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeighborFaultView<'a> {
    /// The topology, for port → neighbour resolution (O(1) on both graph
    /// backends; implicit families have no neighbour slice to borrow).
    pub(crate) graph: &'a Graph,
    /// The querying node.
    pub(crate) node: NodeId,
    /// Per-node first down round (`u64::MAX` = never crashes).
    pub(crate) down_from: &'a [u64],
    /// Per-node recovery round (`u64::MAX` = crash-stop).
    pub(crate) down_until: &'a [u64],
    /// The fault clock of the round being executed.
    pub(crate) clock: u64,
}

impl NeighborFaultView<'_> {
    /// Whether the neighbour behind `port` is down at the current round.
    pub(crate) fn neighbor_failed(&self, port: Port) -> bool {
        let u = self.graph.neighbor(self.node, port);
        self.down_from[u] <= self.clock && self.clock < self.down_until[u]
    }
}

/// The network's live fault machinery, instantiated from a [`FaultPlan`]
/// when one is installed.
#[derive(Debug)]
pub(crate) struct FaultState {
    drop_probability: f64,
    /// Dedicated drop stream; `Some` iff the drop probability is positive,
    /// so plans without random drops consume no randomness at all.
    rng: Option<StdRng>,
    /// First down round per node (`u64::MAX` = never crashes).
    down_from: Vec<u64>,
    /// Recovery round per node (`u64::MAX` = crash-stop; meaningful only
    /// where `down_from` is finite).
    down_until: Vec<u64>,
    /// Crash events sorted by `(round, node)`, for event emission and the
    /// monotone crashed-node count.
    crash_events: Vec<(u64, NodeId)>,
    /// Index of the first crash event not yet reached by the clock.
    next_crash: usize,
    /// Recovery events sorted by `(round, node)`, for event emission.
    recover_events: Vec<(u64, NodeId)>,
    /// Index of the first recovery event not yet reached by the clock.
    next_recover: usize,
    outages: Vec<LinkOutage>,
    /// Per-link latency faults (entries with in-range endpoints only).
    latencies: Vec<LinkLatency>,
    /// Frontier messages the adversarial scheduler strikes per round
    /// (0 = no adversary).
    adversary_k: usize,
    /// Dedicated adversary stream; `Some` iff `adversary_k > 0`.
    adversary_rng: Option<StdRng>,
    /// Directed links that have carried at least one judged send. A hash
    /// set keeps this O(active links) instead of the former O(n²) bitmap —
    /// at a million nodes the bitmap alone would be a terabyte. Never
    /// iterated, so its internal order cannot affect determinism.
    used_links: HashSet<(NodeId, NodeId)>,
    /// The fault clock: the round whose sends the next barrier judges.
    /// Starts at 0 (the runtime's start-up round) and advances with every
    /// barrier and every skipped round.
    pub(crate) clock: u64,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, n: usize) -> Self {
        let mut down_from = vec![u64::MAX; n];
        let mut down_until = vec![u64::MAX; n];
        // Entries for nodes outside the graph are ignored, so one plan can
        // be reused across a scenario's size sweep. When several entries
        // name the same node, the earliest window wins (ties: the shorter
        // one) — one window per node keeps the schedule unambiguous.
        for c in plan.crashes.iter().filter(|c| c.node < n) {
            if (c.round, c.recover_round) < (down_from[c.node], down_until[c.node]) {
                down_from[c.node] = c.round;
                down_until[c.node] = c.recover_round;
            }
        }
        let mut crash_events: Vec<(u64, NodeId)> = down_from
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != u64::MAX)
            .map(|(v, &r)| (r, v))
            .collect();
        crash_events.sort_unstable();
        let mut recover_events: Vec<(u64, NodeId)> = down_until
            .iter()
            .enumerate()
            .filter(|&(v, &r)| r != u64::MAX && down_from[v] < r)
            .map(|(v, &r)| (r, v))
            .collect();
        recover_events.sort_unstable();
        let adversary_k = plan.adversarial_drops as usize;
        FaultState {
            drop_probability: plan.drop_probability,
            rng: (plan.drop_probability > 0.0).then(|| StdRng::seed_from_u64(plan.seed)),
            adversary_k,
            adversary_rng: (adversary_k > 0)
                .then(|| StdRng::seed_from_u64(plan.seed ^ ADVERSARY_STREAM_SALT)),
            used_links: HashSet::new(),
            down_from,
            down_until,
            crash_events,
            next_crash: 0,
            recover_events,
            next_recover: 0,
            outages: plan
                .outages
                .iter()
                .filter(|o| o.a < n && o.b < n)
                .copied()
                .collect(),
            latencies: plan
                .latencies
                .iter()
                .filter(|l| l.a < n && l.b < n)
                .copied()
                .collect(),
            clock: 0,
        }
    }

    /// Whether `v` is down (crashed and not yet recovered) at round `round`.
    pub(crate) fn down_at(&self, v: NodeId, round: u64) -> bool {
        self.down_from[v] <= round && round < self.down_until[v]
    }

    /// Whether `v` has crashed as of the current fault clock.
    pub(crate) fn node_crashed(&self, v: NodeId) -> bool {
        self.down_at(v, self.clock)
    }

    /// Whether `v` is down at the current clock and never recovers.
    pub(crate) fn node_permanently_down(&self, v: NodeId) -> bool {
        self.node_crashed(v) && self.down_until[v] == u64::MAX
    }

    /// Whether the current round is exactly `v`'s recovery round (the round
    /// the runtime must call
    /// [`NodeProgram::on_recover`](crate::runtime::NodeProgram::on_recover)
    /// instead of the ordinary round callback).
    pub(crate) fn node_recovered_this_round(&self, v: NodeId) -> bool {
        self.down_until[v] == self.clock && self.down_from[v] < self.clock
    }

    /// Whether the plan crashes at least one node (crash-stop or
    /// crash-recovery).
    pub(crate) fn crashes_any(&self) -> bool {
        !self.crash_events.is_empty()
    }

    /// The nodes whose recovery round is the current clock, ascending: the
    /// nodes for which [`node_recovered_this_round`](Self::node_recovered_this_round)
    /// holds.
    pub(crate) fn recovering_now(&self) -> impl Iterator<Item = NodeId> + '_ {
        let first = self
            .recover_events
            .partition_point(|&(r, _)| r < self.clock);
        self.recover_events[first..]
            .iter()
            .take_while(|&&(r, _)| r == self.clock)
            .map(|&(_, v)| v)
    }

    /// The per-node down windows, for handing round contexts a read-only
    /// view.
    pub(crate) fn down_windows(&self) -> (&[u64], &[u64]) {
        (&self.down_from, &self.down_until)
    }

    /// Whether a message observed at round `round` reaches `v`: a node is
    /// unreachable while down **and** at its recovery round itself (a
    /// delivery at the reboot instant was addressed to the pre-crash
    /// incarnation), so a recovering node always starts from an empty
    /// inbox.
    pub(crate) fn unreachable_at(&self, v: NodeId, round: u64) -> bool {
        self.down_from[v] <= round && round <= self.down_until[v]
    }

    /// Whether adversarial drop scheduling is configured.
    pub(crate) fn adversary_active(&self) -> bool {
        self.adversary_k > 0
    }

    /// Marks the directed link `from → to` used and reports whether this
    /// was its first use of the run (the message is on the frontier).
    pub(crate) fn mark_link_used(&mut self, from: NodeId, to: NodeId) -> bool {
        self.used_links.insert((from, to))
    }

    /// Chooses up to `adversary_k` of `candidates` (frontier message
    /// positions, in delivery order) with the dedicated adversary stream,
    /// returned sorted so the judging loop can consume them with a cursor.
    /// The stream advances identically for identical candidate lists —
    /// even when every candidate is struck — so replays cannot diverge.
    pub(crate) fn select_strikes(&mut self, mut candidates: Vec<usize>) -> Vec<usize> {
        let k = self.adversary_k.min(candidates.len());
        if k == 0 {
            return Vec::new();
        }
        if let Some(rng) = self.adversary_rng.as_mut() {
            // Partial Fisher–Yates: after k swaps the first k slots hold a
            // uniform k-subset of the candidates.
            for i in 0..k {
                let j = rng.gen_range(i..candidates.len());
                candidates.swap(i, j);
            }
        }
        candidates.truncate(k);
        candidates.sort_unstable();
        candidates
    }

    /// Decides the fate of one message sent from `from` to `to` this round.
    /// Consulted once per pending message, in delivery order; the drop PRNG
    /// is only consumed for messages no structural fault already dropped.
    ///
    /// For latency-free links this is byte-identical (including PRNG
    /// consumption) to the pre-latency fault plane; a latency verdict is
    /// only reached by messages that survived every drop check, and the
    /// receiver-crash check for those is deferred to the due barrier
    /// ([`judge_delayed`](FaultState::judge_delayed)), because the receiver
    /// that matters is the one alive at *delivery* time.
    pub(crate) fn judge(&mut self, from: NodeId, to: NodeId) -> Verdict {
        if self.down_at(from, self.clock) {
            return Verdict::Drop(DropCause::SenderCrashed);
        }
        let delay = self.link_delay(from, to);
        // Delivery happens one round after the send: a receiver down at the
        // delivery round never observes the message. Delayed messages are
        // re-judged at their actual delivery barrier instead.
        if delay == 0 && self.unreachable_at(to, self.clock + 1) {
            return Verdict::Drop(DropCause::ReceiverCrashed);
        }
        for o in &self.outages {
            let on_link = (o.a == from && o.b == to) || (o.a == to && o.b == from);
            if on_link && o.from_round <= self.clock && self.clock < o.until_round {
                return Verdict::Drop(DropCause::LinkOutage);
            }
        }
        if let Some(rng) = self.rng.as_mut() {
            if rng.gen::<f64>() < self.drop_probability {
                return Verdict::Drop(DropCause::RandomDrop);
            }
        }
        if delay > 0 {
            return Verdict::Delay(delay);
        }
        Verdict::Deliver
    }

    /// Decides the fate of a latency-delayed message drained from the
    /// cross-round event queue at its due barrier: only the receiver-crash
    /// check remains (sender crash, outages, and the drop lottery were all
    /// judged at the send barrier).
    pub(crate) fn judge_delayed(&self, to: NodeId) -> Option<DropCause> {
        self.unreachable_at(to, self.clock + 1)
            .then_some(DropCause::ReceiverCrashed)
    }

    /// The configured extra delay for the link `{from, to}` (0 = none; the
    /// first matching entry wins).
    fn link_delay(&self, from: NodeId, to: NodeId) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        self.latencies
            .iter()
            .find(|l| (l.a == from && l.b == to) || (l.a == to && l.b == from))
            .map_or(0, |l| l.delay_rounds)
    }

    /// Emits [`TraceEvent::NodeCrashed`] / [`TraceEvent::NodeRecovered`] for
    /// every crash and recovery the clock has reached (covering rounds
    /// jumped over by `skip_rounds` too) and refreshes the monotone
    /// crashed-node counter. The counter counts crash *events* observed, so
    /// a crash-recovery node still counts as one crash even after it
    /// resumes.
    pub(crate) fn emit_transitions(
        &mut self,
        recorder: &mut MetricsRecorder,
        trace: &mut Vec<TraceEvent>,
        trace_enabled: bool,
    ) {
        while self.next_crash < self.crash_events.len()
            && self.crash_events[self.next_crash].0 <= self.clock
        {
            let (round, node) = self.crash_events[self.next_crash];
            if trace_enabled {
                trace.push(TraceEvent::NodeCrashed { round, node });
            }
            self.next_crash += 1;
        }
        recorder.totals.crashed_nodes = self.next_crash as u64;
        while self.next_recover < self.recover_events.len()
            && self.recover_events[self.next_recover].0 <= self.clock
        {
            let (round, node) = self.recover_events[self.next_recover];
            if trace_enabled {
                trace.push(TraceEvent::NodeRecovered { round, node });
            }
            self.next_recover += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_judges_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        let mut state = FaultState::new(&plan, 8);
        for round in 0..10 {
            state.clock = round;
            for v in 0..8 {
                assert!(!state.node_crashed(v));
                assert_eq!(state.judge(v, (v + 1) % 8), Verdict::Deliver);
            }
        }
    }

    #[test]
    fn crash_drops_and_reports() {
        let plan = FaultPlan::new(0).crash(2, 3);
        assert!(!plan.is_empty());
        let mut state = FaultState::new(&plan, 4);
        state.clock = 2;
        // One round before the crash: sends from 2 still pass, but messages
        // *to* 2 are already lost (they would arrive at round 3).
        assert!(!state.node_crashed(2));
        assert_eq!(state.judge(2, 0), Verdict::Deliver);
        assert_eq!(state.judge(0, 2), Verdict::Drop(DropCause::ReceiverCrashed));
        state.clock = 3;
        assert!(state.node_crashed(2));
        assert!(state.node_permanently_down(2));
        assert_eq!(state.judge(2, 0), Verdict::Drop(DropCause::SenderCrashed));
    }

    #[test]
    fn crash_recovery_window_restores_participation() {
        let plan = FaultPlan::new(0).crash_recover(1, 2, 5);
        let mut state = FaultState::new(&plan, 4);
        // Down rounds [2, 5): sends from 1 dropped, messages to 1 dropped.
        for round in 2..5 {
            state.clock = round;
            assert!(state.node_crashed(1), "round {round}");
            assert!(!state.node_permanently_down(1));
            assert_eq!(
                state.judge(1, 0),
                Verdict::Drop(DropCause::SenderCrashed),
                "round {round}"
            );
        }
        // A delivery observed exactly at the recovery round is lost (the
        // reboot discards it), so round-4 sends to node 1 are dropped even
        // though node 1 computes at round 5.
        state.clock = 4;
        assert_eq!(state.judge(0, 1), Verdict::Drop(DropCause::ReceiverCrashed));
        // At the recovery round the node computes and sends again.
        state.clock = 5;
        assert!(!state.node_crashed(1));
        assert!(state.node_recovered_this_round(1));
        assert_eq!(state.judge(1, 0), Verdict::Deliver);
        assert_eq!(state.judge(0, 1), Verdict::Deliver);
        state.clock = 6;
        assert!(!state.node_recovered_this_round(1));
    }

    #[test]
    fn empty_recovery_windows_are_ignored() {
        let plan = FaultPlan::new(0)
            .crash_recover(1, 5, 5)
            .crash_recover(2, 6, 3);
        assert!(plan.is_empty());
    }

    #[test]
    fn earliest_window_wins_for_duplicate_crash_entries() {
        let plan = FaultPlan::new(0).crash(1, 7).crash_recover(1, 2, 4);
        let mut state = FaultState::new(&plan, 4);
        state.clock = 2;
        assert!(state.node_crashed(1));
        state.clock = 4;
        assert!(!state.node_crashed(1), "the earlier window recovers at 4");
        state.clock = 7;
        assert!(!state.node_crashed(1), "the later crash-stop entry lost");
    }

    #[test]
    fn outage_window_is_half_open_and_bidirectional() {
        let plan = FaultPlan::new(0).link_outage(1, 2, 2, 4);
        let mut state = FaultState::new(&plan, 4);
        for (round, expect) in [
            (1, Verdict::Deliver),
            (2, Verdict::Drop(DropCause::LinkOutage)),
            (4, Verdict::Deliver),
        ] {
            state.clock = round;
            assert_eq!(state.judge(1, 2), expect, "round {round}");
            assert_eq!(state.judge(2, 1), expect, "round {round} reversed");
        }
        state.clock = 3;
        assert_eq!(state.judge(2, 1), Verdict::Drop(DropCause::LinkOutage));
        // Other links are untouched.
        assert_eq!(state.judge(0, 1), Verdict::Deliver);
    }

    #[test]
    fn latency_defers_delivery_in_both_directions() {
        let plan = FaultPlan::new(0).link_latency(0, 1, 3);
        assert!(!plan.is_empty());
        let mut state = FaultState::new(&plan, 4);
        assert_eq!(state.judge(0, 1), Verdict::Delay(3));
        assert_eq!(state.judge(1, 0), Verdict::Delay(3));
        assert_eq!(state.judge(1, 2), Verdict::Deliver);
    }

    #[test]
    fn zero_delay_latency_is_dropped_at_plan_level() {
        assert!(FaultPlan::new(0).link_latency(0, 1, 0).is_empty());
    }

    #[test]
    fn delayed_judgement_checks_receiver_at_due_round() {
        let plan = FaultPlan::new(0).link_latency(0, 1, 4).crash(1, 3);
        let mut state = FaultState::new(&plan, 4);
        // Send at round 0 survives the send barrier (latency wins over the
        // nominal receiver check)…
        assert_eq!(state.judge(0, 1), Verdict::Delay(4));
        // …but at the due barrier (clock 4, observed round 5) node 1 has
        // crashed, so the delayed message is dropped.
        state.clock = 4;
        assert_eq!(state.judge_delayed(1), Some(DropCause::ReceiverCrashed));
        assert_eq!(state.judge_delayed(2), None);
    }

    #[test]
    fn random_drops_are_seed_deterministic() {
        let stream = |seed: u64| -> Vec<bool> {
            let mut state = FaultState::new(&FaultPlan::new(seed).drop_probability(0.5), 2);
            (0..64)
                .map(|_| state.judge(0, 1) != Verdict::Deliver)
                .collect()
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
        assert!(stream(9).iter().any(|&d| d));
        assert!(stream(9).iter().any(|&d| !d));
    }

    #[test]
    fn out_of_range_faults_are_ignored() {
        let plan = FaultPlan::new(0)
            .crash(100, 0)
            .link_outage(0, 100, 0, u64::MAX)
            .link_latency(0, 100, 5)
            .drop_probability(0.0);
        let mut state = FaultState::new(&plan, 4);
        assert_eq!(state.judge(0, 1), Verdict::Deliver);
        assert!(!state.node_crashed(0));
    }

    #[test]
    fn neighbor_fault_view_reports_down_neighbors() {
        let plan = FaultPlan::new(0).crash_recover(2, 1, 3);
        let state = FaultState::new(&plan, 4);
        let (down_from, down_until) = state.down_windows();
        // Node 0 of K_4 sees [1, 2, 3] behind ports [0, 1, 2].
        let graph = crate::topology::complete(4).unwrap();
        let view = |clock| NeighborFaultView {
            graph: &graph,
            node: 0,
            down_from,
            down_until,
            clock,
        };
        assert!(!view(0).neighbor_failed(1));
        assert!(view(1).neighbor_failed(1), "node 2 (port 1) is down");
        assert!(view(2).neighbor_failed(1));
        assert!(!view(3).neighbor_failed(1), "recovered at round 3");
        assert!(!view(1).neighbor_failed(0));
        assert!(!view(1).neighbor_failed(2));
    }

    #[test]
    fn drop_cause_labels_round_trip() {
        for cause in DropCause::ALL {
            assert_eq!(DropCause::parse(cause.label()), Some(cause));
        }
        assert_eq!(DropCause::parse("nonsense"), None);
    }

    #[test]
    fn drop_cause_all_is_exhaustive() {
        // Counting via an exhaustive match: adding a variant breaks this
        // match at compile time, forcing `ALL` (and its length here) to be
        // revisited in the same change.
        let count = DropCause::ALL
            .iter()
            .map(|c| match c {
                DropCause::SenderCrashed
                | DropCause::ReceiverCrashed
                | DropCause::LinkOutage
                | DropCause::RandomDrop
                | DropCause::Adversarial => 1,
            })
            .sum::<usize>();
        assert_eq!(count, DropCause::ALL.len());
    }

    #[test]
    fn identity_adversary_is_ignored() {
        assert!(FaultPlan::new(0).adversarial_drops(0).is_empty());
    }

    #[test]
    fn adversary_marks_frontier_links_and_strikes_deterministically() {
        let plan = FaultPlan::new(7).adversarial_drops(2);
        let mut state = FaultState::new(&plan, 4);
        assert!(state.adversary_active());
        assert!(state.mark_link_used(0, 1), "first use is the frontier");
        assert!(!state.mark_link_used(0, 1), "second use is not");
        assert!(state.mark_link_used(1, 0), "directions are distinct");
        let strikes = state.select_strikes(vec![3, 1, 7, 5]);
        assert_eq!(strikes.len(), 2);
        assert!(strikes.windows(2).all(|w| w[0] < w[1]), "sorted");
        // Re-instantiated state replays the same selection.
        let mut replay = FaultState::new(&plan, 4);
        replay.mark_link_used(0, 1);
        replay.mark_link_used(0, 1);
        replay.mark_link_used(1, 0);
        assert_eq!(replay.select_strikes(vec![3, 1, 7, 5]), strikes);
        // Fewer candidates than k: all struck.
        assert_eq!(state.select_strikes(vec![9]), vec![9]);
        assert_eq!(state.select_strikes(Vec::new()), Vec::<usize>::new());
    }
}
