//! An actor-style synchronous runtime for protocols written as per-node state
//! machines.
//!
//! This is the classical "each node runs an instance of the same algorithm"
//! execution model of Section 2.1. Protocols that are naturally expressed as
//! per-round message handlers (the classical baselines, convergecast /
//! broadcast primitives, the Cole–Vishkin matching step of Section 5.4)
//! implement [`NodeProgram`]; the [`SyncRuntime`] drives all `n` instances in
//! lock-step against a metered [`Network`].
//!
//! Addressing is strictly KT0: a program only ever names its own ports, and
//! incoming messages are tagged with the port they arrived on.
//!
//! # Steady-state allocation
//!
//! The runtime owns all of its scratch: one inbox swap buffer, one
//! port-tagged delivery buffer, and one [`Outbox`], each reused for every
//! node in every round. Combined with the network's reusable pending/inbox
//! buffers, a steady-state [`step`](SyncRuntime::step) performs **zero heap
//! allocation** (after buffer capacities have warmed up in the first rounds).
//!
//! # Round cost
//!
//! A sequential round visits only the nodes on its *schedule*: an n-bit
//! bitmap holding the nodes that were not [`idle`](NodeProgram::idle) after
//! their last callback, the nodes the last barrier delivered to, and the
//! nodes whose crash-recovery round it is. Idle nodes with empty inboxes do
//! nothing by contract, so skipping them changes no send, metric or random
//! draw; nodes are still visited in ascending order. The walk costs
//! O(n/64 + active) per round, and [`all_halted`](SyncRuntime::all_halted)
//! reads a count of running programs instead of scanning them, so the
//! round cost is proportional to the *active* part of the network.
//! Sharded rounds and the start-up round visit every node and rebuild the
//! schedule afterwards.

use rand::rngs::StdRng;

use crate::error::Error;
use crate::fault::{FaultPlan, NeighborFaultView, TraceEvent};
use crate::graph::{Graph, NodeId, Port};
use crate::message::Payload;
use crate::metrics::Metrics;
use crate::network::{Delivery, Network, NetworkConfig, ShardView};
use crate::telemetry::{elapsed_nanos, TelemetryReport};

/// Rounds that delivered fewer messages than this run sequentially even when
/// the network is configured with `shards > 1` (adaptive hybrid scheduling):
/// below this traffic level the per-round pool dispatch costs more than the
/// round body, and since the sequential and sharded paths are byte-identical
/// by the deterministic-merge invariant, the switch is free — it can only
/// trade wall-clock time. The start-up round uses the node count as its
/// traffic proxy (nothing has been delivered yet).
pub const ADAPTIVE_SEQUENTIAL_THRESHOLD: usize = 96;

/// The per-round view a node program gets of its environment.
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// This node's identifier (exposed for tracing; protocols that model an
    /// anonymous network should ignore it and rely on randomness instead).
    pub node: NodeId,
    /// This node's degree, i.e. its number of ports.
    pub degree: usize,
    /// The current round number, starting at 0 for the start-up round.
    pub round: u64,
    /// This node's private random stream.
    pub rng: &'a mut StdRng,
    /// The value of the shared coin this round, if the network has one.
    pub shared_coin: Option<f64>,
    /// The installed fault plan's crash schedule, for the failure-detector
    /// queries below (`None` without a plan).
    pub(crate) faults: Option<NeighborFaultView<'a>>,
}

impl RoundContext<'_> {
    /// Whether the neighbour behind local `port` is currently down, per the
    /// installed fault plan — the **perfect failure detector** the runtime
    /// offers to fault-tolerant protocols: it reports exactly the nodes that
    /// are down *this round* (a node inside its crash-recovery window is
    /// reported down; from its recovery round on it is reported up again).
    /// Always `false` without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    #[must_use]
    pub fn neighbor_failed(&self, port: Port) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.neighbor_failed(port))
    }

    /// The ports whose neighbours are currently down (see
    /// [`neighbor_failed`](RoundContext::neighbor_failed)), in ascending
    /// port order. Empty without a fault plan.
    pub fn failed_neighbors(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.degree).filter(|&p| self.neighbor_failed(p))
    }
}

/// Messages queued by a node for delivery at the end of the current round.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(Port, M)>,
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues `msg` to be sent through `port`.
    pub fn send(&mut self, port: Port, msg: M) {
        self.msgs.push((port, msg));
    }

    /// Queues `msg` to every port in `0..degree`. The original message is
    /// moved into the last port, so a broadcast costs `degree - 1` clones,
    /// not `degree`.
    pub fn send_all(&mut self, degree: usize, msg: M)
    where
        M: Clone,
    {
        if degree == 0 {
            return;
        }
        for port in 0..degree - 1 {
            self.msgs.push((port, msg.clone()));
        }
        self.msgs.push((degree - 1, msg));
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the outbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// A per-node state machine driven by the [`SyncRuntime`].
///
/// `Send` is required so the sharded round engine can execute contiguous
/// chunks of programs on worker threads; programs are per-node protocol
/// state (plain data), so this costs implementors nothing.
///
/// Programs never see *who* mutated a payload: under a Byzantine window
/// ([`FaultPlan::byzantine`](crate::fault::FaultPlan::byzantine)) the fault
/// barrier rewrites a lying node's outgoing messages through
/// [`Payload::mutate`] — the protocol's *wire-corruption model*, the only
/// code path that rewrites payloads. A protocol that wants its control flow
/// to genuinely diverge under mutation implements `mutate` on its message
/// type (conventionally: flip one uniformly-chosen bit of the wire
/// encoding) and detects or mis-adopts the corruption in
/// [`on_round`](NodeProgram::on_round), as
/// [`FloodBft`](crate::programs::FloodBft) does with its checksum tag.
pub trait NodeProgram: Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Called once, before the first round, to let the node send its initial
    /// messages.
    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<Self::Msg>);

    /// Called every round with the messages delivered this round (tagged with
    /// the local port they arrived through).
    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, Self::Msg)],
        outbox: &mut Outbox<Self::Msg>,
    );

    /// Called instead of [`on_round`](NodeProgram::on_round) at the node's
    /// recovery round, when the installed
    /// [`FaultPlan`] has a crash-recovery window
    /// for this node (see
    /// [`FaultPlan::crash_recover`](crate::fault::FaultPlan::crash_recover)).
    ///
    /// The node rebooted: whatever this hook leaves in `self` is the state
    /// the node resumes with, and the messages it queues in `outbox` are its
    /// first sends. The default implementation keeps the pre-crash state and
    /// sends nothing — protocols that model a genuine reboot should reset
    /// their fields to the initial state here. The node's inbox is
    /// guaranteed empty at this point: messages that would have been
    /// observed at the recovery round were addressed to the pre-reboot
    /// incarnation and were dropped at the barrier.
    fn on_recover(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<Self::Msg>) {
        let _ = (ctx, outbox);
    }

    /// Whether this node has terminated. The runtime stops when every node
    /// has halted (or the round limit is reached).
    ///
    /// A halted node is [`idle`](NodeProgram::idle): it must send nothing
    /// and stay halted *as long as its inbox stays empty*. Receiving a
    /// message may legitimately un-halt a node (fault-tolerant protocols use
    /// this to serve retransmission requests from recovered neighbours).
    fn halted(&self) -> bool;

    /// Whether this node does nothing until mail arrives: with an empty
    /// inbox its [`on_round`](NodeProgram::on_round) sends nothing, draws no
    /// randomness and changes no state, so the answer stays `true` until a
    /// message is delivered (or the node's crash-recovery round calls
    /// [`on_recover`](NodeProgram::on_recover)).
    ///
    /// The runtime never calls `on_round` on an idle node with an empty
    /// inbox, and a round visits only the nodes that are not idle, just
    /// received mail or recover this round — which is what makes a round
    /// cost what its active nodes do. `halted()` must imply `idle()`. The
    /// default, `halted()`, is always sound; a program that waits for mail
    /// without having terminated (a flood node before the token arrives)
    /// says so here to stay off the schedule.
    fn idle(&self) -> bool {
        self.halted()
    }
}

/// Drives `n` instances of a [`NodeProgram`] in synchronous rounds.
#[derive(Debug)]
pub struct SyncRuntime<P: NodeProgram> {
    net: Network<P::Msg>,
    programs: Vec<P>,
    round: u64,
    /// Reusable buffer the per-node inbox is swapped into (capacity rotates
    /// through the network's inbox pool — see [`Network::swap_inbox`]).
    inbox_scratch: Vec<Delivery<P::Msg>>,
    /// Reusable `(arrival port, message)` view handed to programs.
    incoming: Vec<(Port, P::Msg)>,
    /// Reusable outbox handed to programs; drained after each callback.
    outbox: Outbox<P::Msg>,
    /// Reusable drain buffer for flushing the outbox while the network is
    /// borrowed mutably.
    flush_scratch: Vec<(Port, P::Msg)>,
    /// Per-shard scratch for the sharded execution path (empty when the
    /// network resolved to a single shard).
    shard_scratch: Vec<ShardScratch<P::Msg>>,
    /// Per-shard error slots for the sharded path; the lowest-shard error is
    /// the one reported, which keeps error selection deterministic.
    shard_errors: Vec<Option<Error>>,
    /// Per-shard wall-clock busy-time slots written by the workers when
    /// telemetry is enabled (mirrors `shard_errors`; always zero and never
    /// read when telemetry is off).
    shard_busy: Vec<u64>,
    /// Rounds the adaptive scheduler ran sequentially despite `shards > 1`
    /// (always 0 when the network resolved to a single shard).
    adaptive_sequential_rounds: u64,
    /// One bit per node: the nodes that were not idle after their last
    /// callback. The next sequential round adds the nodes the barrier
    /// delivered to and the nodes recovering this round, then visits the
    /// set bits in ascending order (see the module docs).
    schedule: Vec<u64>,
    /// One bit per node: its program's `halted()` after its last callback.
    /// Comparing against this bit, instead of calling `halted()` before
    /// each callback, keeps a costly `halted()` (an O(degree) scan in
    /// `FloodFt`) off the per-node path.
    halted: Vec<u64>,
    /// Number of clear bits in `halted`: the programs still running.
    running: usize,
}

/// One worker shard's reusable buffers: the sharded analogue of the
/// runtime's sequential `inbox_scratch` / `incoming` / `outbox` trio.
#[derive(Debug)]
struct ShardScratch<M> {
    inbox_scratch: Vec<Delivery<M>>,
    incoming: Vec<(Port, M)>,
    outbox: Outbox<M>,
}

impl<M> Default for ShardScratch<M> {
    fn default() -> Self {
        ShardScratch {
            inbox_scratch: Vec::new(),
            incoming: Vec::new(),
            outbox: Outbox::new(),
        }
    }
}

/// Executes one shard's slice of a round (or of the start-up round): the
/// per-node inbox translation, program callback, and outbox flush of the
/// sequential engine, against the shard's exclusive [`ShardView`].
///
/// Nodes are processed in node order within the shard and sends are queued
/// into the shard's outbox in that order, which is what makes the barrier
/// merge (shard queues concatenated in shard order) reproduce the sequential
/// engine's global node-order delivery exactly. A shard visits every node
/// of its range, not a schedule: the sequential engine's schedule is
/// rebuilt after the round.
///
/// This is deliberately a *copy* of the per-node body in the sequential
/// `visit_schedule` / [`SyncRuntime::start`] loops rather than a shared
/// abstraction: the sequential loop is the engine's hottest code and its
/// codegen is fragile (routing it through a view indirection measurably
/// regressed sparse rounds), so the two copies are kept textually parallel
/// instead. If you change the skip rule, delivery translation, or flush
/// order here, mirror it there — the determinism suite compares `k = 1`
/// against `k > 1` behaviour precisely to catch a missed mirror.
fn run_shard_round<P: NodeProgram>(
    programs: &mut [P],
    view: &mut ShardView<'_, P::Msg>,
    scratch: &mut ShardScratch<P::Msg>,
    round: u64,
    shared_coin: Option<f64>,
    start: bool,
) -> Result<(), Error> {
    let node_lo = view.first_node();
    for (offset, program) in programs.iter_mut().enumerate() {
        let v = node_lo + offset;
        // Same recovery rule as the sequential engine: at its recovery
        // round a rebooted node runs `on_recover` instead of the ordinary
        // callback (its inbox is empty — the barrier dropped everything
        // addressed to the pre-crash incarnation).
        if view.node_recovered_this_round(v) {
            let degree = view.graph().degree(v);
            let (rng, faults) = view.ctx_parts(v);
            let mut ctx = RoundContext {
                node: v,
                degree,
                round,
                rng,
                shared_coin,
                faults,
            };
            program.on_recover(&mut ctx, &mut scratch.outbox);
            for (port, msg) in scratch.outbox.msgs.drain(..) {
                view.send_through_port(v, port, msg)?;
            }
            continue;
        }
        // Same crash rule as the sequential engine: a crashed node computes
        // nothing and its inbox is kept empty by the barrier.
        if view.node_crashed(v) {
            continue;
        }
        let degree = view.graph().degree(v);
        if start {
            let (rng, faults) = view.ctx_parts(v);
            let mut ctx = RoundContext {
                node: v,
                degree,
                round,
                rng,
                shared_coin,
                faults,
            };
            program.on_start(&mut ctx, &mut scratch.outbox);
        } else {
            let inbox_empty = view.inbox_is_empty(v);
            // Same skip rule as the sequential engine: an idle node with an
            // empty inbox does nothing.
            if inbox_empty && program.idle() {
                continue;
            }
            if inbox_empty {
                scratch.incoming.clear();
            } else {
                view.swap_inbox(v, &mut scratch.inbox_scratch);
                scratch.incoming.clear();
                scratch.incoming.extend(
                    scratch
                        .inbox_scratch
                        .drain(..)
                        .map(|(_, port, msg)| (port, msg)),
                );
            }
            let (rng, faults) = view.ctx_parts(v);
            let mut ctx = RoundContext {
                node: v,
                degree,
                round,
                rng,
                shared_coin,
                faults,
            };
            program.on_round(&mut ctx, &scratch.incoming, &mut scratch.outbox);
        }
        for (port, msg) in scratch.outbox.msgs.drain(..) {
            view.send_through_port(v, port, msg)?;
        }
    }
    Ok(())
}

/// Puts node `v` on a [`SyncRuntime`] schedule bitmap.
fn schedule_node(schedule: &mut [u64], v: NodeId) {
    schedule[v / 64] |= 1 << (v % 64);
}

impl<P: NodeProgram> SyncRuntime<P> {
    /// Creates a runtime over `graph`, instantiating each node's program with
    /// `init(node, degree)` — the only knowledge a KT0 node starts with.
    #[must_use]
    pub fn new(graph: Graph, config: NetworkConfig, init: impl FnMut(NodeId, usize) -> P) -> Self {
        Self::with_network(Network::new(graph, config), init)
    }

    /// Creates a runtime over `net`, a network that has not run a round yet
    /// and may already carry a fault plan, trace sink, telemetry sidecar, or
    /// scheduler adversary ([`Network::set_scheduler`] — the whole of event
    /// mode). Programs are instantiated as in [`new`](SyncRuntime::new).
    #[must_use]
    pub fn with_network(net: Network<P::Msg>, mut init: impl FnMut(NodeId, usize) -> P) -> Self {
        let graph = net.graph();
        let n = graph.node_count();
        let programs = (0..n).map(|v| init(v, graph.degree(v))).collect();
        let shards = net.shard_count();
        let (shard_scratch, shard_errors, shard_busy) = if shards > 1 {
            (
                (0..shards).map(|_| ShardScratch::default()).collect(),
                (0..shards).map(|_| None).collect(),
                vec![0u64; shards],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let mut runtime = SyncRuntime {
            net,
            programs,
            round: 0,
            inbox_scratch: Vec::new(),
            incoming: Vec::new(),
            outbox: Outbox::new(),
            flush_scratch: Vec::new(),
            shard_scratch,
            shard_errors,
            shard_busy,
            adaptive_sequential_rounds: 0,
            schedule: vec![0; n.div_ceil(64)],
            halted: vec![0; n.div_ceil(64)],
            running: 0,
        };
        runtime.rebuild_schedule();
        runtime
    }

    /// Installs a [`FaultPlan`] on the underlying network (see
    /// [`Network::set_fault_plan`]); call before [`start`](SyncRuntime::start).
    /// Crashed nodes are skipped by both the sequential and the sharded
    /// round engine, and their traffic is dropped at the barrier.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Turns on the network's trace sink (see [`Network::enable_trace`]).
    pub fn enable_trace(&mut self) {
        self.net.enable_trace();
    }

    /// Installs the opt-in telemetry sidecar (see
    /// [`Network::enable_telemetry`]); call before
    /// [`start`](SyncRuntime::start). With telemetry on, each round
    /// additionally records a node-step wall-clock span and — on sharded
    /// rounds — per-shard worker busy time. Strictly outside the
    /// determinism domain: metrics, history, traces, and RNG streams are
    /// byte-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self) {
        self.net.enable_telemetry();
    }

    /// Harvests the telemetry sidecar into a
    /// [`TelemetryReport`] (see [`Network::take_telemetry`]), stamping in
    /// this runtime's adaptive-sequential switch count. `None` if telemetry
    /// was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let adaptive = self.adaptive_sequential_rounds;
        self.net.take_telemetry().map(|mut report| {
            report.wall.adaptive_sequential_rounds = adaptive;
            report
        })
    }

    /// Takes the events recorded so far (see [`Network::take_trace`]).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.net.take_trace()
    }

    /// Rounds executed sequentially by the adaptive scheduler despite a
    /// `shards > 1` configuration (sparse rounds below
    /// [`ADAPTIVE_SEQUENTIAL_THRESHOLD`]).
    #[must_use]
    pub fn adaptive_sequential_rounds(&self) -> u64 {
        self.adaptive_sequential_rounds
    }

    /// The number of worker shards executing each round (1 = sequential).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.net.shard_count()
    }

    /// The underlying network (for metric inspection).
    #[must_use]
    pub fn network(&self) -> &Network<P::Msg> {
        &self.net
    }

    /// The per-node programs.
    #[must_use]
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Cumulative metrics so far.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.net.metrics()
    }

    /// Runs until every node halts or `max_rounds` rounds have elapsed.
    /// Returns the number of rounds executed (including the start-up round).
    ///
    /// # Errors
    ///
    /// Propagates network errors (invalid port, oversized message, busy
    /// edge), which indicate a bug in the protocol implementation.
    //
    // `inline(never)`: entered once per run, the loop compiles to the same
    // code whoever calls it. Inlined into a large caller (the scenario
    // registry's protocol dispatch), the sequential round loop measurably
    // slowed down (perfbench `flood-cycle`).
    #[inline(never)]
    pub fn run_until_halt(&mut self, max_rounds: u64) -> Result<u64, Error> {
        self.start()?;
        while self.round < max_rounds && !self.all_halted() {
            self.step()?;
        }
        Ok(self.round)
    }

    /// Executes only the start-up callbacks (round 0 sends).
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn start(&mut self) -> Result<(), Error> {
        debug_assert_eq!(self.round, 0, "start() called twice");
        // Adaptive hybrid scheduling: nothing has been delivered before the
        // start-up round, so the node count stands in for the traffic level.
        if self.net.shard_count() > 1 {
            if self.programs.len() >= ADAPTIVE_SEQUENTIAL_THRESHOLD {
                self.run_round_sharded(true)?;
                self.round = 1;
                return Ok(());
            }
            self.adaptive_sequential_rounds += 1;
        }
        let shared = self.shared_value();
        let node_step_start = self.net.telemetry_enabled().then(std::time::Instant::now);
        // (No recovery check here: a crash-recovery window `[from, until)`
        // needs `from < until`, so no node can recover at round 0.)
        for v in 0..self.programs.len() {
            if self.net.node_crashed(v) {
                continue;
            }
            let degree = self.net.graph().degree(v);
            {
                let (rng, faults) = self.net.ctx_parts(v);
                let mut ctx = RoundContext {
                    node: v,
                    degree,
                    round: 0,
                    rng,
                    shared_coin: shared,
                    faults,
                };
                self.programs[v].on_start(&mut ctx, &mut self.outbox);
            }
            self.flush_outbox(v)?;
        }
        if let Some(start) = node_step_start {
            self.net.record_node_step(elapsed_nanos(start));
        }
        self.net.advance_round();
        self.round = 1;
        self.rebuild_schedule();
        Ok(())
    }

    /// Executes one full round: delivery, per-node handlers, and sends.
    ///
    /// Steady-state this performs no heap allocation, and a sequential round
    /// visits only the scheduled nodes (see the module docs), so idle nodes
    /// with empty inboxes cost nothing.
    ///
    /// # Errors
    ///
    /// Propagates network errors from the queued sends.
    pub fn step(&mut self) -> Result<(), Error> {
        // Adaptive hybrid scheduling: a sparse round (few messages delivered
        // at the last barrier) costs more in pool dispatch than it saves, so
        // it runs on the calling thread even with `shards > 1`. Both paths
        // are byte-identical (the deterministic-merge invariant), so the
        // switch affects wall-clock time only.
        if self.net.shard_count() > 1 {
            if self.net.delivered_last_round() >= ADAPTIVE_SEQUENTIAL_THRESHOLD {
                self.run_round_sharded(false)?;
                self.round += 1;
                return Ok(());
            }
            self.adaptive_sequential_rounds += 1;
        }
        let shared = self.shared_value();
        let node_step_start = self.net.telemetry_enabled().then(std::time::Instant::now);
        // The schedule holds the nodes that stayed busy after their last
        // callback; add the ones the barrier just delivered to (including
        // matured delayed messages) and the ones rebooting this round.
        for &v in self.net.dirty_inboxes() {
            schedule_node(&mut self.schedule, v);
        }
        for v in self.net.recovering_now() {
            schedule_node(&mut self.schedule, v);
        }
        let visited = self.visit_schedule(shared);
        if visited.is_err() {
            // The walk stopped part-way and dropped the bits it had not
            // reached: rebuild them from the programs.
            self.rebuild_schedule();
        }
        visited?;
        if let Some(start) = node_step_start {
            self.net.record_node_step(elapsed_nanos(start));
        }
        self.net.advance_round();
        self.round += 1;
        Ok(())
    }

    /// The node loop of a sequential round: visits the scheduled nodes in
    /// ascending order, taking each bitmap word (which clears it) and
    /// re-filing every node that ran a callback.
    ///
    /// The per-node body is mirrored in `run_shard_round` (kept as two
    /// textually parallel copies for hot-loop codegen; see the note there).
    fn visit_schedule(&mut self, shared: Option<f64>) -> Result<(), Error> {
        for w in 0..self.schedule.len() {
            let mut bits = std::mem::take(&mut self.schedule[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A rebooted node runs `on_recover` instead of the ordinary
                // callback at its recovery round (its inbox is empty — the
                // barrier dropped everything addressed to the pre-crash
                // incarnation).
                if self.net.node_recovered_this_round(v) {
                    let degree = self.net.graph().degree(v);
                    {
                        let (rng, faults) = self.net.ctx_parts(v);
                        let mut ctx = RoundContext {
                            node: v,
                            degree,
                            round: self.round,
                            rng,
                            shared_coin: shared,
                            faults,
                        };
                        self.programs[v].on_recover(&mut ctx, &mut self.outbox);
                    }
                    self.refile(v);
                    if !self.outbox.is_empty() {
                        self.flush_outbox(v)?;
                    }
                    continue;
                }
                let inbox_empty = self.net.inbox(v).is_empty();
                // An idle node with an empty inbox does nothing: leave it
                // off the schedule without touching any buffer.
                if inbox_empty && self.programs[v].idle() {
                    continue;
                }
                // A crashed node computes nothing (its inbox is always empty:
                // the barrier already dropped anything addressed to it). It
                // leaves the schedule: if it comes back, its recovery round
                // puts it on again.
                if self.net.node_crashed(v) {
                    continue;
                }
                if inbox_empty {
                    // Busy node without mail: hand it an empty view without
                    // touching the swap machinery.
                    self.incoming.clear();
                } else {
                    // Translate (sender, port, msg) deliveries into
                    // (receiving port, msg) pairs: KT0 nodes see ports, not
                    // identifiers. The arrival port was already resolved in
                    // O(1) at send time.
                    self.net.swap_inbox(v, &mut self.inbox_scratch);
                    self.incoming.clear();
                    self.incoming.extend(
                        self.inbox_scratch
                            .drain(..)
                            .map(|(_, port, msg)| (port, msg)),
                    );
                }
                let degree = self.net.graph().degree(v);
                {
                    let (rng, faults) = self.net.ctx_parts(v);
                    let mut ctx = RoundContext {
                        node: v,
                        degree,
                        round: self.round,
                        rng,
                        shared_coin: shared,
                        faults,
                    };
                    self.programs[v].on_round(&mut ctx, &self.incoming, &mut self.outbox);
                }
                self.refile(v);
                if !self.outbox.is_empty() {
                    self.flush_outbox(v)?;
                }
            }
        }
        Ok(())
    }

    /// Re-files node `v` after a callback: back on the schedule unless its
    /// program is idle, and into or out of the running count if its
    /// `halted()` changed.
    fn refile(&mut self, v: NodeId) {
        let program = &self.programs[v];
        let (halted, idle) = (program.halted(), program.idle());
        let (word, bit) = (v / 64, 1 << (v % 64));
        if !idle {
            self.schedule[word] |= bit;
        }
        if halted != (self.halted[word] & bit != 0) {
            self.halted[word] ^= bit;
            if halted {
                self.running -= 1;
            } else {
                self.running += 1;
            }
        }
    }

    /// Rebuilds the schedule and the running count from every program: at
    /// construction, and after the start-up round and sharded rounds, which
    /// visit every node anyway.
    fn rebuild_schedule(&mut self) {
        self.schedule.fill(0);
        self.halted.fill(0);
        self.running = 0;
        for (v, program) in self.programs.iter().enumerate() {
            if !program.idle() {
                schedule_node(&mut self.schedule, v);
            }
            if program.halted() {
                schedule_node(&mut self.halted, v);
            } else {
                self.running += 1;
            }
        }
    }

    /// Whether every node program has halted. A **permanently** crashed
    /// node counts as halted: it executes nothing ever again, so waiting on
    /// its program state would spin
    /// [`run_until_halt`](SyncRuntime::run_until_halt) through the whole
    /// round budget on every crash-stop scenario. A node inside a
    /// crash-recovery window does *not* count as halted — it will
    /// participate again, so the run must continue at least until its
    /// recovery round.
    ///
    /// When the fault plan crashes no node this is O(1): it reads the count
    /// of running programs that every callback keeps current. A plan with
    /// crashes takes an O(n) scan, because whether a crashed node counts as
    /// halted depends on whether it comes back, which the count cannot
    /// express.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        if !self.net.plan_crashes_nodes() {
            return self.running == 0;
        }
        self.programs.iter().enumerate().all(|(v, p)| {
            if self.net.node_crashed(v) {
                // Down now: final iff it never comes back. The pre-crash
                // program state is irrelevant — a recovering node reboots.
                self.net.node_permanently_down(v)
            } else {
                p.halted()
            }
        })
    }

    /// Consumes the runtime and returns the programs and final metrics.
    #[must_use]
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        let metrics = self.net.metrics();
        (self.programs, metrics)
    }

    fn shared_value(&mut self) -> Option<f64> {
        self.net.shared_coin_uniform().ok()
    }

    /// Executes one round (or the start-up round) across `k > 1` worker
    /// shards on the persistent `rayon` pool, then merges at the barrier.
    ///
    /// The network is split into disjoint [`ShardView`]s and the program
    /// vector into matching contiguous chunks; each worker runs its shard's
    /// nodes in node order against purely shard-local state (inboxes, RNG
    /// streams, edge stamps, outbox queue, counters), so there is no
    /// cross-shard synchronisation inside a round. `advance_round` then
    /// performs the deterministic shard-order merge.
    ///
    /// On error the round is **not** advanced — matching the sequential
    /// path, which aborts at the erroring node before its `advance_round` —
    /// and if several shards error, the lowest shard's error is reported
    /// (deterministic). Exact post-error state still differs from
    /// sequential in which *other* nodes ran before the error surfaced;
    /// errors indicate protocol bugs, and the byte-identical-across-shard-
    /// counts invariant is scoped to error-free executions.
    ///
    /// Unlike the sequential path this allocates O(k) task envelopes per
    /// round — the price of dispatch; the per-message hot paths stay
    /// allocation-free.
    ///
    /// `inline(never)` keeps the sharded machinery out of `step`'s inlined
    /// body: with one codegen unit, letting it bleed into the sequential
    /// loop measurably regresses the `k = 1` hot path (one call per round
    /// is irrelevant at shard granularity).
    #[inline(never)]
    fn run_round_sharded(&mut self, start: bool) -> Result<(), Error> {
        let shared = self.shared_value();
        let round = self.round;
        let telemetry_on = self.net.telemetry_enabled();
        let node_step_start = telemetry_on.then(std::time::Instant::now);
        let mut views = self.net.shard_views();
        debug_assert_eq!(views.len(), self.shard_scratch.len());
        {
            let mut rest: &mut [P] = &mut self.programs;
            let mut tasks: Vec<_> = views
                .drain(..)
                .zip(self.shard_scratch.iter_mut())
                .zip(self.shard_errors.iter_mut().zip(self.shard_busy.iter_mut()))
                .map(|((view, scratch), (error, busy))| {
                    let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(view.node_count());
                    rest = tail;
                    let mut view = view;
                    move || {
                        // Wall-clock only, written into a pre-allocated slot:
                        // the workers never touch the telemetry sink (or any
                        // shared state) directly.
                        let busy_start = telemetry_on.then(std::time::Instant::now);
                        *error =
                            run_shard_round(chunk, &mut view, scratch, round, shared, start).err();
                        if let Some(at) = busy_start {
                            *busy = elapsed_nanos(at);
                        }
                    }
                })
                .collect();
            rayon::pool::global().scope_execute_batch(&mut tasks);
        }
        // Drain every slot (not just the first) so nothing stale can ever
        // be re-reported; the lowest shard's error wins deterministically.
        let mut first_err = None;
        for slot in &mut self.shard_errors {
            let taken = slot.take();
            if first_err.is_none() {
                first_err = taken;
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        if let Some(at) = node_step_start {
            self.net.record_node_step(elapsed_nanos(at));
            for s in 0..self.shard_busy.len() {
                self.net.record_shard_busy(s, self.shard_busy[s]);
                self.shard_busy[s] = 0;
            }
        }
        self.net.advance_round();
        self.rebuild_schedule();
        Ok(())
    }

    /// Sends everything queued in the shared outbox on behalf of `v`.
    ///
    /// The outbox contents are swapped into a scratch buffer first so the
    /// network can be borrowed mutably while draining; both buffers are
    /// reused across calls.
    fn flush_outbox(&mut self, v: NodeId) -> Result<(), Error> {
        std::mem::swap(&mut self.outbox.msgs, &mut self.flush_scratch);
        for (port, msg) in self.flush_scratch.drain(..) {
            self.net.send_through_port(v, port, msg)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Flood;
    use crate::topology;

    #[test]
    fn flooding_terminates_in_diameter_rounds() {
        let graph = topology::cycle(10).unwrap();
        let diameter = graph.diameter() as u64;
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(100).unwrap();
        assert!(runtime.all_halted());
        assert!(rounds <= diameter + 2);
        // Flooding sends at most 2 messages per edge.
        assert!(runtime.metrics().classical_messages <= 2 * 10);
    }

    #[test]
    fn run_respects_round_limit() {
        // Nobody ever halts (no node starts with the token).
        let graph = topology::path(4).unwrap();
        let mut runtime =
            SyncRuntime::new(graph, NetworkConfig::with_seed(3), |_, _| Flood::new(false));
        let rounds = runtime.run_until_halt(17).unwrap();
        assert_eq!(rounds, 17);
        assert!(!runtime.all_halted());
    }

    #[test]
    fn into_parts_returns_programs_and_metrics() {
        let graph = topology::complete(4).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3), |v, _| {
            Flood::new(v == 0)
        });
        runtime.run_until_halt(10).unwrap();
        let (programs, metrics) = runtime.into_parts();
        assert_eq!(programs.len(), 4);
        assert!(metrics.classical_messages > 0);
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn shared_coin_is_visible_to_programs_when_configured() {
        #[derive(Debug)]
        struct CoinWatcher {
            saw: Option<f64>,
        }
        impl NodeProgram for CoinWatcher {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, _outbox: &mut Outbox<bool>) {
                self.saw = ctx.shared_coin;
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let graph = topology::complete(3).unwrap();
        let mut runtime = SyncRuntime::new(
            graph,
            NetworkConfig::with_seed(3).shared_coin(true),
            |_, _| CoinWatcher { saw: None },
        );
        runtime.run_until_halt(2).unwrap();
        let coins: Vec<_> = runtime.programs().iter().map(|p| p.saw).collect();
        assert!(coins[0].is_some());
        assert_eq!(coins[0], coins[1]);
        assert_eq!(coins[1], coins[2]);
    }

    #[test]
    fn sharded_flood_is_byte_identical_to_sequential() {
        let graph = topology::hypercube(6).unwrap();
        let run = |shards: usize| {
            let mut runtime = SyncRuntime::new(
                graph.clone(),
                NetworkConfig::with_seed(3)
                    .shards(shards)
                    .track_history(true),
                |v, _| Flood::new(v == 0),
            );
            let rounds = runtime.run_until_halt(1000).unwrap();
            let history = runtime.network().round_history().to_vec();
            (rounds, runtime.metrics(), history)
        };
        let sequential = run(1);
        for shards in [2usize, 3, 4, 8] {
            assert_eq!(run(shards), sequential, "shards = {shards}");
        }
    }

    #[test]
    fn sharded_execution_routes_private_rng_streams_correctly() {
        use rand::Rng;

        // Every node draws from its private stream each round and remembers
        // the draws; per-node streams must be identical for any shard count,
        // which fails loudly if a shard hands node v a misaligned RNG slice.
        #[derive(Debug)]
        struct Roller {
            draws: Vec<u64>,
        }
        impl NodeProgram for Roller {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                self.draws.push(ctx.rng.gen());
                outbox.send_all(ctx.degree, true);
            }
            fn on_round(
                &mut self,
                ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                outbox: &mut Outbox<bool>,
            ) {
                self.draws.push(ctx.rng.gen());
                outbox.send_all(ctx.degree, true);
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let graph = topology::cycle(17).unwrap();
        let run = |shards: usize| {
            let mut runtime = SyncRuntime::new(
                graph.clone(),
                NetworkConfig::with_seed(11).shards(shards),
                |_, _| Roller { draws: Vec::new() },
            );
            runtime.run_until_halt(6).unwrap();
            let (programs, metrics) = runtime.into_parts();
            let draws: Vec<Vec<u64>> = programs.into_iter().map(|p| p.draws).collect();
            (draws, metrics)
        };
        let sequential = run(1);
        for shards in [2usize, 4, 5] {
            assert_eq!(run(shards), sequential, "shards = {shards}");
        }
    }

    #[test]
    fn sharded_runtime_reports_edge_busy() {
        // A protocol bug (double send on one port) must surface the same
        // error family under sharded execution as under sequential.
        #[derive(Debug)]
        struct DoubleSender;
        impl NodeProgram for DoubleSender {
            type Msg = bool;
            fn on_start(&mut self, _ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                outbox.send(0, true);
                outbox.send(0, true);
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                _incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
            }
            fn halted(&self) -> bool {
                true
            }
        }
        for shards in [1usize, 4] {
            let graph = topology::cycle(8).unwrap();
            let mut runtime =
                SyncRuntime::new(graph, NetworkConfig::with_seed(1).shards(shards), |_, _| {
                    DoubleSender
                });
            assert!(matches!(runtime.start(), Err(Error::EdgeBusy { .. })));
            // Error parity with the sequential engine: the round must not
            // have advanced.
            assert_eq!(runtime.metrics().rounds, 0, "shards = {shards}");
        }
    }

    #[test]
    fn shard_count_resolves_and_clamps() {
        let graph = topology::complete(4).unwrap();
        let runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1).shards(64), |_, _| {
            Flood::new(false)
        });
        // Clamped to n = 4 nodes.
        assert_eq!(runtime.shard_count(), 4);
    }

    #[test]
    fn halted_nodes_with_mail_still_observe_it() {
        // A program that counts deliveries even while "halted": the runtime
        // must not skip a halted node whose inbox is non-empty (its neighbour
        // may have sent in the same round it halted).
        #[derive(Debug)]
        struct Sink {
            sent: bool,
            received: usize,
        }
        impl NodeProgram for Sink {
            type Msg = bool;
            fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
                if !self.sent {
                    outbox.send_all(ctx.degree, true);
                    self.sent = true;
                }
            }
            fn on_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                incoming: &[(Port, bool)],
                _outbox: &mut Outbox<bool>,
            ) {
                self.received += incoming.len();
            }
            fn halted(&self) -> bool {
                true
            }
        }
        let graph = topology::complete(3).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |_, _| Sink {
            sent: false,
            received: 0,
        });
        runtime.start().unwrap();
        runtime.step().unwrap();
        // Every node broadcast at start-up, so each received 2 messages
        // despite reporting halted() == true throughout.
        for p in runtime.programs() {
            assert_eq!(p.received, 2);
        }
    }
}
