//! The metered network handle: sending, round advancement, randomness, and
//! quantum-scope message accounting.
//!
//! # Data plane
//!
//! The network is built for steady-state **zero heap allocation** per round:
//!
//! * Sends append to one reusable `pending` buffer; delivery drains it into
//!   per-node inbox buffers that are cleared (capacity kept) rather than
//!   reallocated, with a dirty list so a round costs O(messages delivered),
//!   not O(n).
//! * The CONGEST one-message-per-directed-edge rule is enforced by one
//!   16-byte **send-state** slot per node, filled on the node's first send.
//!   A node of degree at most 64 gets a round-stamped page: port `p` is
//!   busy iff its stamp equals the current round stamp. A node of higher
//!   degree gets a port set instead: an open-addressed hash set of the
//!   ports it used in one round, each slot tagged with its round's stamp.
//!   The set doubles when it would be over half full, and becomes a page
//!   when doubling would make it bigger than one.
//!   Either way nothing is cleared between rounds, nodes that never
//!   transmit never pay for stamps at all, and a node that sends a few
//!   messages a round pays for those, not for its degree (a page per
//!   sender is 8 MiB on `K_{2^20}`; the former eager `Vec<u64>` over all
//!   directed edge ids was O(E), which at a million-node complete graph is
//!   a terabyte).
//! * The arrival port of every message is resolved at *send* time — an O(1)
//!   reverse-port table read on the CSR backend, an O(1) closed form on
//!   implicit topologies — so receivers (and the
//!   [`SyncRuntime`](crate::runtime::SyncRuntime)) never scan adjacency
//!   lists. The whole send path carries `(node, port)` pairs, so a send on
//!   an implicit backend costs one closed-form evaluation and no division.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::error::Error;
use crate::event::{SchedulerSpec, SchedulerState};
use crate::fault::{DropCause, FaultPlan, FaultState, NeighborFaultView, TraceEvent, Verdict};
use crate::graph::{Graph, NodeId, Port};
use crate::message::{congest_budget_bits, Payload};
use crate::metrics::{Metrics, MetricsRecorder, RoundReport};
use crate::telemetry::{elapsed_nanos, Phase, TelemetryReport, TelemetrySink};

/// Configuration of a [`Network`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Master seed; every node's private randomness and the optional shared
    /// coin are derived deterministically from it.
    pub seed: u64,
    /// Whether the network also provides a global (shared) coin, as assumed
    /// by the agreement protocol of Section 6. Leader election protocols do
    /// not use it.
    pub shared_coin: bool,
    /// Whether to retain a per-round [`RoundReport`] history (costs memory on
    /// very long runs; metrics totals are always kept).
    pub track_round_history: bool,
}

impl NetworkConfig {
    /// A default configuration with the given seed: no shared coin, history
    /// tracking off.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        NetworkConfig {
            seed,
            shared_coin: false,
            track_round_history: false,
        }
    }

    /// Ignored: every round runs on the calling thread, in node order.
    /// Returns the configuration unchanged, so that callers which still
    /// name a shard count keep building.
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Enables the global shared coin.
    #[must_use]
    pub fn shared_coin(mut self, enabled: bool) -> Self {
        self.shared_coin = enabled;
        self
    }

    /// Enables or disables per-round history tracking.
    #[must_use]
    pub fn track_history(mut self, enabled: bool) -> Self {
        self.track_round_history = enabled;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::with_seed(0)
    }
}

/// A message delivered to a node: `(sender, arrival port, payload)`.
///
/// The arrival port is resolved at send time through the CSR reverse-port
/// table; KT0 programs should use the port and ignore the sender id (which
/// the simulator exposes for tracing and tests).
pub type Delivery<M> = (NodeId, Port, M);

/// A synchronous CONGEST network carrying messages of payload type `M`.
///
/// Protocols interact with the network exclusively through this handle:
/// sending ([`send`](Network::send), [`send_through_port`](Network::send_through_port)),
/// advancing rounds
/// ([`advance_round`](Network::advance_round)), reading delivered messages
/// ([`inbox`](Network::inbox), [`swap_inbox`](Network::swap_inbox)),
/// drawing private randomness ([`rng`](Network::rng)) or the shared coin
/// ([`shared_coin_uniform`](Network::shared_coin_uniform)), and charging
/// quantum subroutine traffic ([`quantum_scope`](Network::quantum_scope)).
#[derive(Debug)]
pub struct Network<M: Payload> {
    graph: Graph,
    config: NetworkConfig,
    recorder: MetricsRecorder,
    budget_bits: usize,
    /// Messages sent this round as `(sender, arrival port, recipient,
    /// payload)`, delivered at the next `advance_round`. Reused across
    /// rounds (drained, never dropped).
    pending: Vec<(NodeId, Port, NodeId, M)>,
    /// Messages delivered at the last `advance_round`. Cleared (capacity
    /// kept) rather than reallocated.
    inboxes: Vec<Vec<Delivery<M>>>,
    /// Nodes whose inboxes are non-empty (so round advancement clears only
    /// what was touched, keeping each round `O(messages delivered)` instead
    /// of `O(n)`).
    dirty_inboxes: Vec<NodeId>,
    /// Per-node send state: which ports of `v` already carry a message this
    /// round, as a stamp page or, for a node of degree above 64, a port set
    /// that grows with what `v` sends in a round (see [`SendState`]); an
    /// empty slot means `v` has never sent. Keeps round state O(n + messages
    /// per round) for nodes on sets and O(deg) for nodes on pages, instead
    /// of O(E) — essential for implicit million-node topologies. Monotone
    /// stamps make clearing unnecessary.
    send_state: Vec<SendState>,
    /// The current round's stamp; starts at 1 so a zero-initialised stamp
    /// page means "never used".
    round_stamp: u64,
    node_rngs: Vec<StdRng>,
    shared_rng: Option<StdRng>,
    /// The fault-injection plane, instantiated when a
    /// [`FaultPlan`](crate::fault::FaultPlan) is installed; `None` (the
    /// default) keeps delivery on the pristine fault-free path.
    faults: Option<FaultState>,
    /// The scheduler adversary of event mode, instantiated when a
    /// [`SchedulerSpec`] is installed; `None` (the default) keeps delivery
    /// on the round-synchronous path.
    scheduler: Option<SchedulerState>,
    /// The global event queue: messages parked by link-latency faults or
    /// scheduler skew, as `(sender, arrival port, recipient, payload)`, in
    /// FIFO buckets keyed by the clock of the barrier they mature at. Both
    /// kinds of delay park through [`park`](Network::park) in delivery
    /// order, so each bucket is in delivery order too; the barrier whose
    /// clock reaches a bucket's key drains it and drops it. Always empty
    /// without latency faults or a scheduler.
    delayed: BTreeMap<u64, Vec<(NodeId, Port, NodeId, M)>>,
    /// Messages parked in `delayed`, sampled by telemetry at each barrier.
    delayed_len: usize,
    /// Whether the trace sink records events (off by default; when off the
    /// sink is never touched).
    trace_enabled: bool,
    /// Round-stamped fault events, recorded at the barrier in delivery
    /// order when tracing is enabled.
    trace: Vec<TraceEvent>,
    /// The opt-in observability sidecar (see the [`telemetry`](crate::telemetry)
    /// module): `None` — the default — keeps every probe in the round
    /// barrier to a single predictable branch and the send paths untouched.
    /// Strictly outside the determinism domain: nothing recorded here feeds
    /// back into metrics, history, traces, or randomness.
    telemetry: Option<Box<TelemetrySink>>,
}

impl<M: Payload> Network<M> {
    /// Creates a network over `graph` with the given configuration.
    #[must_use]
    pub fn new(graph: Graph, config: NetworkConfig) -> Self {
        let n = graph.node_count();
        let budget_bits = congest_budget_bits(n);
        let mut seeder = StdRng::seed_from_u64(config.seed);
        let node_rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(seeder.next_u64()))
            .collect();
        let shared_rng = config
            .shared_coin
            .then(|| StdRng::seed_from_u64(seeder.next_u64()));
        Network {
            inboxes: vec![Vec::new(); n],
            dirty_inboxes: Vec::new(),
            send_state: (0..n).map(|_| SendState::default()).collect(),
            round_stamp: 1,
            graph,
            config,
            recorder: MetricsRecorder::default(),
            budget_bits,
            pending: Vec::new(),
            node_rngs,
            shared_rng,
            faults: None,
            scheduler: None,
            delayed: BTreeMap::new(),
            delayed_len: 0,
            trace_enabled: false,
            trace: Vec::new(),
            telemetry: None,
        }
    }

    /// Installs a [`FaultPlan`], instantiating the fault-injection plane.
    ///
    /// Must be installed before the first round: the fault clock starts at
    /// round 0 regardless of when the plan is installed. Fault decisions are
    /// made at the delivery barrier in delivery order, which is send order,
    /// so a faulty run is exactly as deterministic as a fault-free one (see
    /// the crate docs and the [`fault`](crate::fault) module). Installing an
    /// *empty* plan is byte-identical to installing none.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = Some(FaultState::new(plan, self.graph.node_count()));
    }

    /// Installs a scheduler adversary, which is all event mode is: whatever
    /// drives this network — a [`SyncRuntime`](crate::SyncRuntime) or a
    /// protocol calling the network directly — runs unchanged while the
    /// barrier skews its deliveries (see the
    /// [`event`](crate::event) module and `docs/EXECUTION_MODELS.md`).
    ///
    /// Must be installed before the first round: the scheduler clock starts
    /// at 0 and advances with every barrier. The scheduler is consulted at
    /// the delivery barrier, in delivery order, for every message the fault
    /// plane delivers (fault-delayed messages keep their fault latency),
    /// and draws only from its own dedicated salted stream — so an
    /// event-mode run is exactly as deterministic as a round-mode one.
    /// Installing the
    /// [`synchronous`](crate::SchedulerSpec::synchronous) scheduler is
    /// byte-identical to installing none.
    pub fn set_scheduler(&mut self, spec: &SchedulerSpec) {
        self.scheduler = Some(SchedulerState::new(spec));
    }

    /// Turns on the trace sink: from now on, fault events are recorded with
    /// their round stamps. Off by default, in which case tracing costs one
    /// branch per barrier and nothing else.
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The events recorded so far (empty unless [`enable_trace`](Network::enable_trace)
    /// was called).
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Takes the recorded events, leaving the sink empty (and still
    /// enabled, if it was).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Installs the opt-in telemetry sidecar (see the
    /// [`telemetry`](crate::telemetry) module): from now on each round
    /// barrier samples the deterministic histograms (messages per round,
    /// inbox sizes, event-queue depth, scheduler skew) and accumulates
    /// wall-clock phase spans. Off by default; when off the barrier pays
    /// one predictable branch and the send paths pay nothing. Telemetry is
    /// strictly outside the determinism domain — enabling it changes no
    /// metric, trace, or random draw. Idempotent.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(TelemetrySink::new()));
        }
    }

    /// Whether the telemetry sidecar is installed.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Harvests the telemetry sidecar into a [`TelemetryReport`], removing
    /// it from the network (`None` if telemetry was never enabled).
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.telemetry
            .take()
            .map(|sink| sink.finish(self.recorder.totals.total_messages()))
    }

    /// Records `nanos` of node-program execution time on the telemetry
    /// sidecar (no-op when telemetry is off). Called by the runtime once
    /// per round.
    pub(crate) fn record_node_step(&mut self, nanos: u64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record_phase(Phase::NodeStep, nanos);
        }
    }

    /// Whether node `v` is down (crashed and not yet recovered, per the
    /// installed fault plan) as of the round currently executing. Always
    /// `false` without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn node_crashed(&self, v: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.node_crashed(v))
    }

    /// Whether node `v` is down as of the current round **and never
    /// recovers** — what "counts as halted" means to
    /// [`SyncRuntime::all_halted`](crate::runtime::SyncRuntime::all_halted):
    /// a node inside a crash-recovery window will participate again, so
    /// waiting for it is not a livelock.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn node_permanently_down(&self, v: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.node_permanently_down(v))
    }

    /// Whether the round currently executing is exactly node `v`'s recovery
    /// round — the round where the runtime calls
    /// [`NodeProgram::on_recover`](crate::runtime::NodeProgram::on_recover)
    /// instead of the ordinary round callback. Always `false` without a
    /// fault plan.
    ///
    /// The gate is exact: if [`skip_rounds`](Network::skip_rounds) jumps
    /// *over* the recovery round, the reboot instant was never executed and
    /// this query never reports it (the node simply resumes with whatever
    /// state it had; the `NodeRecovered` trace event still surfaces at the
    /// next barrier). The [`SyncRuntime`](crate::runtime::SyncRuntime) —
    /// the only caller that drives `on_recover` — never skips rounds, so
    /// this only concerns drivers that mix `skip_rounds` with their own
    /// recovery handling.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn node_recovered_this_round(&self, v: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.node_recovered_this_round(v))
    }

    /// Splits the borrows a [`RoundContext`](crate::runtime::RoundContext)
    /// needs for node `v`: the node's private RNG stream (mutable) plus a
    /// read-only neighbour-fault view (`None` without a fault plan).
    pub(crate) fn ctx_parts(&mut self, v: NodeId) -> (&mut StdRng, Option<NeighborFaultView<'_>>) {
        let faults = self.faults.as_ref().map(|f| {
            let (down_from, down_until) = f.down_windows();
            NeighborFaultView {
                graph: &self.graph,
                node: v,
                down_from,
                down_until,
                clock: f.clock,
            }
        });
        (&mut self.node_rngs[v], faults)
    }

    /// The nodes the last [`advance_round`](Network::advance_round)
    /// delivered to (including matured delayed messages), in delivery order:
    /// every node whose inbox the barrier left non-empty.
    pub(crate) fn dirty_inboxes(&self) -> &[NodeId] {
        &self.dirty_inboxes
    }

    /// The nodes for which [`node_recovered_this_round`](Network::node_recovered_this_round)
    /// holds, ascending (none without a fault plan).
    pub(crate) fn recovering_now(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faults.iter().flat_map(FaultState::recovering_now)
    }

    /// Whether the installed fault plan crashes at least one node.
    pub(crate) fn plan_crashes_nodes(&self) -> bool {
        self.faults.as_ref().is_some_and(FaultState::crashes_any)
    }

    /// The underlying communication graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The configuration this network was created with.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The per-message bit budget (`O(log n)` with the crate's constant).
    #[must_use]
    pub fn congest_budget_bits(&self) -> usize {
        self.budget_bits
    }

    /// Cumulative metrics so far.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.recorder.totals
    }

    /// Per-round history (empty unless [`NetworkConfig::track_round_history`]
    /// is enabled).
    #[must_use]
    pub fn round_history(&self) -> &[RoundReport] {
        &self.recorder.history
    }

    /// Mutable access to node `v`'s private random stream.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn rng(&mut self, v: NodeId) -> &mut StdRng {
        &mut self.node_rngs[v]
    }

    /// Draws a uniform value in `[0, 1)` from the global shared coin.
    ///
    /// All nodes observing the shared coin in the same round see the same
    /// value by construction (there is a single stream).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SharedCoinUnavailable`] if the network was configured
    /// without a shared coin.
    pub fn shared_coin_uniform(&mut self) -> Result<f64, Error> {
        match self.shared_rng.as_mut() {
            Some(rng) => Ok(rng.gen::<f64>()),
            None => Err(Error::SharedCoinUnavailable),
        }
    }

    /// The tail of every send once the target and arrival port are known:
    /// budget check, stamp, meter, queue. CONGEST enforcement is an O(1)
    /// stamp compare against the sender's stamp page (or an expected O(1)
    /// probe of its port set, which is at most half full).
    #[inline]
    fn send_resolved(
        &mut self,
        from: NodeId,
        port: Port,
        to: NodeId,
        arrival: Port,
        msg: M,
    ) -> Result<(), Error> {
        let bits = msg.size_bits();
        if bits > self.budget_bits {
            return Err(Error::MessageTooLarge {
                bits,
                budget: self.budget_bits,
            });
        }
        if !self.send_state[from].try_stamp(|| self.graph.degree(from), port, self.round_stamp) {
            return Err(Error::EdgeBusy { from, to });
        }
        self.recorder.record_send(bits);
        self.pending.push((from, arrival, to, msg));
        Ok(())
    }

    /// Sends `msg` from `from` to the adjacent node `to`, to be delivered at
    /// the next [`advance_round`](Network::advance_round).
    ///
    /// Costs one `O(log deg(from))` port lookup; protocols that already know
    /// the port should prefer [`send_through_port`](Network::send_through_port),
    /// which is O(1).
    ///
    /// # Errors
    ///
    /// * [`Error::NodeOutOfRange`] if either endpoint is out of range,
    /// * [`Error::NotAdjacent`] if the nodes are not neighbours,
    /// * [`Error::MessageTooLarge`] if the payload exceeds the CONGEST budget,
    /// * [`Error::EdgeBusy`] if the directed edge was already used this round.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> Result<(), Error> {
        let n = self.graph.node_count();
        if from >= n {
            return Err(Error::NodeOutOfRange { node: from, n });
        }
        if to >= n {
            return Err(Error::NodeOutOfRange { node: to, n });
        }
        let Some(port) = self.graph.port_to(from, to) else {
            return Err(Error::NotAdjacent { from, to });
        };
        let arrival = self.graph.arrival_port(from, port, to);
        self.send_resolved(from, port, to, arrival, msg)
    }

    /// Sends `msg` from `from` through its local port `port` (KT0
    /// addressing). O(1): the port *is* the directed edge slot.
    ///
    /// # Errors
    ///
    /// Same as [`send`](Network::send), plus [`Error::PortOutOfRange`].
    pub fn send_through_port(&mut self, from: NodeId, port: Port, msg: M) -> Result<(), Error> {
        if from >= self.graph.node_count() {
            return Err(Error::NodeOutOfRange {
                node: from,
                n: self.graph.node_count(),
            });
        }
        match self.graph.checked_delivery(from, port) {
            Ok((to, arrival)) => self.send_resolved(from, port, to, arrival, msg),
            Err(degree) => Err(Error::PortOutOfRange {
                node: from,
                port,
                degree,
            }),
        }
    }

    /// Delivers all pending messages and advances the round clock by one.
    ///
    /// Delivery order is send order: the `pending` buffer is drained front
    /// to back, so every inbox lists its messages in the order they were
    /// sent, and the fault plane and the scheduler judge them in that order.
    ///
    /// Steady-state this performs **no heap allocation**: inboxes are
    /// cleared in place, the pending buffer is drained in place, and edge
    /// usage is invalidated by bumping the round stamp.
    pub fn advance_round(&mut self) {
        // The telemetry sidecar is taken out for the duration of the
        // barrier so the instrumentation below can borrow the rest of the
        // network freely; with telemetry off (the default) every probe in
        // this function is a single predictable branch on a `None`.
        let mut telemetry = self.telemetry.take();
        let barrier_start = telemetry.as_ref().map(|_| std::time::Instant::now());
        for v in self.dirty_inboxes.drain(..) {
            self.inboxes[v].clear();
        }
        let mut slow_nanos = 0u64;
        let mut slow_phase = None;
        if self.faults.is_some() || self.scheduler.is_some() {
            if barrier_start.is_some() {
                // The slow span is attributed to the fault judge when a
                // fault plan is installed (its verdicts dominate, and the
                // scheduler consultation is interleaved per message), and
                // to the scheduler oracle when only a scheduler runs.
                slow_phase = Some(if self.faults.is_some() {
                    Phase::FaultJudge
                } else {
                    Phase::SchedulerOracle
                });
                let slow_start = std::time::Instant::now();
                self.deliver_slow();
                slow_nanos = elapsed_nanos(slow_start);
            } else {
                self.deliver_slow();
            }
        } else {
            for (from, port, to, msg) in self.pending.drain(..) {
                if self.inboxes[to].is_empty() {
                    self.dirty_inboxes.push(to);
                }
                self.inboxes[to].push((from, port, msg));
            }
        }
        self.round_stamp += 1;
        if let Some(faults) = self.faults.as_mut() {
            faults.clock += 1;
        }
        if let Some(scheduler) = self.scheduler.as_mut() {
            scheduler.clock += 1;
        }
        if let Some(t) = telemetry.as_deref_mut() {
            // Deterministic samples: every input here is fixed by the seed,
            // the plan and the send order.
            for &v in &self.dirty_inboxes {
                t.record_inbox_size(self.inboxes[v].len() as u64);
            }
            t.finish_barrier(
                self.recorder.current_round_messages,
                self.delayed_len as u64,
                self.scheduler.as_ref().map(|s| s.total_skew),
                barrier_start.map_or(0, elapsed_nanos),
                slow_nanos,
                slow_phase,
            );
        }
        self.recorder.finish_round(self.config.track_round_history);
        self.telemetry = telemetry;
    }

    /// The slow delivery path, taken when a fault plane and/or a scheduler
    /// adversary is installed: identical to the fast loop in
    /// [`advance_round`](Network::advance_round) except that every message is
    /// judged by the installed [`FaultState`] and then skewed by the
    /// installed [`SchedulerState`] — both in send order, so fault
    /// decisions, scheduler decisions, and their dedicated PRNG streams are
    /// as deterministic as the sends. Kept out of line so the plain hot path
    /// pays one branch for the whole feature.
    ///
    /// Delayed messages that matured (their due clock reached, possibly
    /// jumped over by [`skip_rounds`](Network::skip_rounds)) are delivered
    /// **first**, bucket by bucket in ascending due clock and each bucket in
    /// the order it was parked — they were sent in earlier rounds — then
    /// this round's pending messages are judged. Matured messages are not
    /// re-skewed: each message meets the scheduler exactly once, and a
    /// fault-latency verdict keeps its fault delay (no double skew).
    #[inline(never)]
    fn deliver_slow(&mut self) {
        let mut faults = self.faults.take();
        let mut scheduler = self.scheduler.take();
        // The fault and scheduler clocks advance in lockstep (barriers and
        // skipped rounds), so whichever is present names the current time.
        let clock = match (&faults, &scheduler) {
            (Some(f), _) => f.clock,
            (None, Some(s)) => s.clock,
            (None, None) => unreachable!("slow path without faults or scheduler"),
        };
        if let Some(faults) = faults.as_mut() {
            faults.emit_transitions(&mut self.recorder, &mut self.trace, self.trace_enabled);
        }
        while let Some(bucket) = self.delayed.first_entry() {
            if *bucket.key() > clock {
                break;
            }
            let bucket = bucket.remove();
            self.delayed_len -= bucket.len();
            for (from, port, to, msg) in bucket {
                match faults.as_ref().and_then(|f| f.judge_delayed(to)) {
                    Some(cause) => {
                        self.recorder.record_drop();
                        if self.trace_enabled {
                            self.trace.push(TraceEvent::MessageDropped {
                                round: clock,
                                from,
                                to,
                                cause,
                            });
                        }
                    }
                    None => {
                        if self.inboxes[to].is_empty() {
                            self.dirty_inboxes.push(to);
                        }
                        self.inboxes[to].push((from, port, msg));
                    }
                }
            }
        }
        // Adversarial drop scheduling, phase one: scan this barrier's sends
        // in send order, mark every directed link used, and collect the
        // positions of frontier messages (first use of their link in the
        // run); the dedicated adversary stream then picks up to k of them
        // to strike. The scan order equals the judging order below.
        let strikes = match faults.as_mut() {
            Some(faults) if faults.adversary_active() => {
                let mut candidates = Vec::new();
                for (i, (from, _, to, _)) in self.pending.iter().enumerate() {
                    if faults.mark_link_used(*from, *to) {
                        candidates.push(i);
                    }
                }
                faults.select_strikes(candidates)
            }
            _ => Vec::new(),
        };
        let mut next_strike = 0usize;
        let mut pending = std::mem::take(&mut self.pending);
        for (i, (from, port, to, msg)) in pending.drain(..).enumerate() {
            // Phase two: a struck message is dropped before `judge` runs,
            // so the uniform drop stream is not consumed for it.
            let struck = next_strike < strikes.len() && strikes[next_strike] == i;
            let verdict = if struck {
                next_strike += 1;
                Verdict::Drop(DropCause::Adversarial)
            } else {
                match faults.as_mut() {
                    Some(faults) => faults.judge(from, to),
                    None => Verdict::Deliver,
                }
            };
            let delay = match verdict {
                Verdict::Drop(cause) => {
                    self.recorder.record_drop();
                    if self.trace_enabled {
                        self.trace.push(TraceEvent::MessageDropped {
                            round: clock,
                            from,
                            to,
                            cause,
                        });
                    }
                    continue;
                }
                Verdict::Delay(delay) => {
                    self.recorder.record_delay();
                    if self.trace_enabled {
                        self.trace.push(TraceEvent::MessageDelayed {
                            round: clock,
                            from,
                            to,
                            delay,
                        });
                    }
                    delay
                }
                Verdict::Deliver => {
                    // The fault plane delivers this message; the scheduler
                    // adversary now chooses how long the network holds it.
                    // `0` — the synchronous policy's only answer — delivers
                    // at this barrier, exactly like the round engine.
                    let skew = scheduler.as_mut().map_or(0, SchedulerState::delay);
                    if skew > 0 {
                        self.recorder.record_scheduled();
                        if self.trace_enabled {
                            self.trace.push(TraceEvent::MessageScheduled {
                                round: clock,
                                from,
                                to,
                                delay: skew,
                            });
                        }
                    }
                    skew
                }
            };
            // Zero-delay latencies are discarded at plan level, so only a
            // zero scheduler skew delivers at this barrier.
            if delay > 0 {
                self.park(clock, delay, (from, port, to, msg));
            } else {
                if self.inboxes[to].is_empty() {
                    self.dirty_inboxes.push(to);
                }
                self.inboxes[to].push((from, port, msg));
            }
        }
        self.pending = pending;
        self.faults = faults;
        self.scheduler = scheduler;
    }

    /// Parks a message that the barrier at `clock` holds back for `delay`
    /// ticks, behind everything already parked for the same due clock. The
    /// due clock saturates, so a delay too large for the clock parks the
    /// message for good: barrier clocks stay below 2^63 (see
    /// [`skip_rounds`](Network::skip_rounds)).
    fn park(&mut self, clock: u64, delay: u64, parcel: (NodeId, Port, NodeId, M)) {
        self.delayed
            .entry(clock.saturating_add(delay))
            .or_default()
            .push(parcel);
        self.delayed_len += 1;
    }

    /// Advances the round clock by `rounds` rounds in which no messages are
    /// sent. Used to account for the predetermined synchronisation slack of
    /// the quantum subroutines (Definition 4.1) without simulating each empty
    /// round individually.
    ///
    /// # Panics
    ///
    /// Panics if the round clock would reach 2^63: send state tells round
    /// stamps from port-set words by the top bit.
    pub fn skip_rounds(&mut self, rounds: u64) {
        debug_assert!(
            self.pending.is_empty(),
            "skip_rounds with undelivered messages"
        );
        self.round_stamp = self
            .round_stamp
            .checked_add(rounds)
            .filter(|&stamp| stamp < SET_BIT)
            .expect("round stamps stay below 2^63");
        if let Some(faults) = self.faults.as_mut() {
            // Keep outage windows, latencies, and crash rounds aligned with
            // protocol round numbers; crashes/recoveries inside the skipped
            // window surface (as events and in the crashed-node count) at
            // the next barrier, and latency-delayed messages whose due round
            // falls inside it are delivered — late — at the next barrier
            // too. A recovery round jumped over is never *executed* though:
            // `node_recovered_this_round` gates on exact equality (see its
            // docs), so skipping past it means the node resumes silently
            // with its pre-crash state.
            faults.clock += rounds;
        }
        if let Some(scheduler) = self.scheduler.as_mut() {
            // Keep the scheduler clock in lockstep with the round stamp so
            // scheduler-parked messages mature (late) at the next barrier.
            scheduler.clock += rounds;
        }
        self.recorder.record_idle_rounds(rounds);
    }

    /// Messages delivered to `v` at the last round advancement, as
    /// `(sender, arrival port, payload)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn inbox(&self, v: NodeId) -> &[Delivery<M>] {
        &self.inboxes[v]
    }

    /// Exchanges the inbox of `v` with `scratch`: `scratch` is cleared and
    /// receives `v`'s messages, and `v`'s inbox takes over `scratch`'s
    /// storage. Repeated use rotates a fixed set of buffers through the
    /// network, so the steady state performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn swap_inbox(&mut self, v: NodeId, scratch: &mut Vec<Delivery<M>>) {
        scratch.clear();
        std::mem::swap(&mut self.inboxes[v], scratch);
    }

    /// Runs `body` with all message traffic charged to the quantum meter.
    ///
    /// This implements the message-complexity convention of Section 3.1: the
    /// traffic generated while simulating one representative configuration of
    /// a superposed subroutine is what the paper charges for the whole
    /// superposition (the maximum over configurations; our representative is
    /// constructed to be exactly that maximum).
    pub fn quantum_scope<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        self.recorder.quantum_depth += 1;
        let out = body(self);
        self.recorder.quantum_depth -= 1;
        out
    }
}

/// Highest degree whose node gets a full stamp page on its first send: the
/// page is then at most 512 B. Nodes of higher degree start on a port set.
const PAGE_MAX_DEGREE: usize = 64;

/// Set in every word of a port set. Round stamps stay below it (see
/// [`Network::skip_rounds`]), so no set word reads as a page stamp of the
/// current round or an earlier one.
const SET_BIT: u64 = 1 << 63;

/// Words before a port set's first slot: the round its count belongs to,
/// and the count of slots holding that round's ports.
const SET_HEADER: usize = 2;

/// Slots in a new port set, enough for the one port of its first send.
const SET_MIN_SLOTS: usize = 2;

/// One node's CONGEST edge-busy state: which of its ports already carry a
/// message this round, in one boxed word slice that is empty until the node
/// first sends.
///
/// * A **page** holds one round stamp per port: port `p` is busy iff
///   `words[p]` equals the current round stamp. A node of degree at most
///   [`PAGE_MAX_DEGREE`] gets one on its first send.
/// * A **port set**, for a node of higher degree, is an open-addressed
///   hash set of the ports used in one round: the [`SET_HEADER`] words,
///   then power-of-two many `(stamp, port)` slots probed linearly, every
///   word tagged with [`SET_BIT`]. A slot whose stamp is not the current
///   round's is free. The set doubles, carrying only the current round's
///   ports, when it would be over half full, and becomes a page, carrying
///   their stamps, when doubling would make it bigger than the page.
///
/// So the state costs memory in proportion to what the node sends in a
/// round, not to its degree, and nothing is ever cleared. A page entry is
/// at most the current stamp and a set word is above every stamp, so one
/// indexed load tells a page's free and busy ports from a set.
#[derive(Debug, Default)]
struct SendState(Box<[u64]>);

// One slot per node: a boxed slice, empty until the node first sends.
const _: () = assert!(std::mem::size_of::<SendState>() == 16);

impl SendState {
    /// Marks `port` used in round `round_stamp`. Returns `false` iff the
    /// directed edge already carried a message this round. The degree is a
    /// closure so the steady-state path never pays the backend dispatch for
    /// it.
    #[inline]
    fn try_stamp(&mut self, degree: impl FnOnce() -> usize, port: Port, round_stamp: u64) -> bool {
        if let Some(stamp) = self.0.get_mut(port) {
            if *stamp == round_stamp {
                return false;
            }
            if *stamp < round_stamp {
                *stamp = round_stamp;
                return true;
            }
        }
        if self.0.is_empty() {
            self.first_send(degree(), port, round_stamp);
            return true;
        }
        self.set_insert(degree, port, round_stamp)
    }

    /// Allocates the node's page or port set and marks `port` in it.
    #[cold]
    #[inline(never)]
    fn first_send(&mut self, degree: usize, port: Port, round_stamp: u64) {
        if degree <= PAGE_MAX_DEGREE {
            self.0 = vec![0; degree].into_boxed_slice();
            self.0[port] = round_stamp;
        } else {
            self.0 = vec![SET_BIT; SET_HEADER + 2 * SET_MIN_SLOTS].into_boxed_slice();
            self.set_insert(|| degree, port, round_stamp);
        }
    }

    /// [`try_stamp`](SendState::try_stamp) on a port set. Kept out of line
    /// so that the page path inlined into every send stays small.
    #[inline(never)]
    fn set_insert(&mut self, degree: impl FnOnce() -> usize, port: Port, round_stamp: u64) -> bool {
        let round = round_stamp | SET_BIT;
        let key = port as u64 | SET_BIT;
        let words = &mut self.0;
        if words[0] != round {
            words[0] = round;
            words[1] = SET_BIT;
        }
        let Some(at) = vacancy(words, key, round) else {
            return false;
        };
        let count = words[1] & !SET_BIT;
        if 2 * (count as usize + 1) > slot_count(words) {
            self.grow(degree(), key, round);
            return true;
        }
        words[at] = round;
        words[at + 1] = key;
        words[1] += 1;
        true
    }

    /// Doubles the port set, or turns it into the node's page once the
    /// doubled set would be bigger, and adds `key` to it. Either keeps only
    /// the current round's ports.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, degree: usize, key: u64, round: u64) {
        let old = std::mem::take(&mut self.0);
        let current = old[SET_HEADER..]
            .chunks_exact(2)
            .filter(|slot| slot[0] == round)
            .map(|slot| slot[1])
            .chain([key]);
        let slots = 2 * slot_count(&old);
        if SET_HEADER + 2 * slots > degree {
            let mut page = vec![0; degree].into_boxed_slice();
            for key in current {
                page[(key & !SET_BIT) as usize] = round & !SET_BIT;
            }
            self.0 = page;
            return;
        }
        let mut words = vec![SET_BIT; SET_HEADER + 2 * slots].into_boxed_slice();
        words[0] = round;
        for key in current {
            let at = vacancy(&words, key, round).expect("ports in a set are distinct");
            words[at] = round;
            words[at + 1] = key;
            words[1] += 1;
        }
        self.0 = words;
    }
}

/// The number of slots of a port set.
fn slot_count(words: &[u64]) -> usize {
    (words.len() - SET_HEADER) / 2
}

/// The word index of the slot where `key` goes in a port set, or `None` if
/// the set holds it for the current round. Probes linearly from the key's
/// Fibonacci hash; a set at most half full always has a free slot.
fn vacancy(words: &[u64], key: u64, round: u64) -> Option<usize> {
    let slots = slot_count(words);
    let mut slot =
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize;
    loop {
        let at = SET_HEADER + 2 * slot;
        if words[at] != round {
            return Some(at);
        }
        if words[at + 1] == key {
            return None;
        }
        slot = (slot + 1) & (slots - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn small_net(shared: bool) -> Network<u64> {
        let graph = topology::complete(6).unwrap();
        Network::new(
            graph,
            NetworkConfig::with_seed(42)
                .shared_coin(shared)
                .track_history(true),
        )
    }

    #[test]
    fn send_and_deliver() {
        let mut net = small_net(false);
        net.send(0, 1, 7).unwrap();
        net.send(2, 1, 9).unwrap();
        assert!(net.inbox(1).is_empty());
        net.advance_round();
        let mut got: Vec<_> = net.inbox(1).to_vec();
        got.sort_unstable();
        // In K_6, node 1's port 0 leads to node 0 and port 1 to node 2.
        assert_eq!(got, vec![(0, 0, 7), (2, 1, 9)]);
        assert_eq!(net.metrics().classical_messages, 2);
        assert_eq!(net.metrics().rounds, 1);
    }

    #[test]
    fn arrival_ports_match_port_to() {
        let graph = topology::cycle(8).unwrap();
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(0));
        net.send(3, 4, 1).unwrap();
        net.send(5, 4, 2).unwrap();
        net.advance_round();
        for &(from, port, _) in net.inbox(4) {
            assert_eq!(net.graph().port_to(4, from), Some(port));
        }
    }

    #[test]
    fn send_rejects_non_adjacent() {
        let graph = topology::path(4).unwrap();
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(1));
        assert!(matches!(net.send(0, 3, 1), Err(Error::NotAdjacent { .. })));
        assert!(matches!(
            net.send(0, 9, 1),
            Err(Error::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            net.send_through_port(0, 7, 1),
            Err(Error::PortOutOfRange { .. })
        ));
        assert!(matches!(
            net.send_through_port(9, 0, 1),
            Err(Error::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn congest_edge_busy_enforced() {
        let mut net = small_net(false);
        net.send(0, 1, 1).unwrap();
        assert!(matches!(net.send(0, 1, 2), Err(Error::EdgeBusy { .. })));
        // Opposite direction is a different directed edge.
        net.send(1, 0, 3).unwrap();
        net.advance_round();
        // Next round the edge is free again.
        net.send(0, 1, 4).unwrap();
    }

    #[test]
    fn edge_stamps_survive_skip_rounds() {
        let mut net = small_net(false);
        net.send(0, 1, 1).unwrap();
        net.advance_round();
        net.skip_rounds(10);
        // After skipping, the edge must be free.
        net.send(0, 1, 2).unwrap();
        net.advance_round();
        assert_eq!(net.metrics().rounds, 12);
    }

    #[test]
    fn message_size_budget_enforced() {
        #[derive(Debug, Clone)]
        struct Huge;
        impl Payload for Huge {
            fn size_bits(&self) -> usize {
                1 << 20
            }
        }
        let graph = topology::complete(4).unwrap();
        let mut net: Network<Huge> = Network::new(graph, NetworkConfig::with_seed(1));
        assert!(matches!(
            net.send(0, 1, Huge),
            Err(Error::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn quantum_scope_charges_quantum_meter() {
        let mut net = small_net(false);
        net.send(0, 1, 1).unwrap();
        net.quantum_scope(|net| {
            net.send(1, 2, 2).unwrap();
            net.send(2, 3, 3).unwrap();
        });
        net.advance_round();
        let m = net.metrics();
        assert_eq!(m.classical_messages, 1);
        assert_eq!(m.quantum_messages, 2);
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn shared_coin_requires_configuration() {
        let mut without = small_net(false);
        assert!(matches!(
            without.shared_coin_uniform(),
            Err(Error::SharedCoinUnavailable)
        ));
        let mut with = small_net(true);
        let a = with.shared_coin_uniform().unwrap();
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let draw = |seed| {
            let graph = topology::complete(5).unwrap();
            let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(seed));
            (0..5).map(|v| net.rng(v).gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn per_node_rng_streams_are_independent() {
        let mut net = small_net(false);
        let a: u64 = net.rng(0).gen();
        let b: u64 = net.rng(1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn skip_rounds_accounts_rounds_only() {
        let mut net = small_net(false);
        net.skip_rounds(500);
        assert_eq!(net.metrics().rounds, 500);
        assert_eq!(net.metrics().total_messages(), 0);
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        // A broadcast is one send through every port.
        let mut net = small_net(false);
        for port in 0..5 {
            net.send_through_port(0, port, 11).unwrap();
        }
        net.advance_round();
        for v in 1..6 {
            let inbox = net.inbox(v);
            assert_eq!(inbox.len(), 1);
            let (from, port, msg) = inbox[0];
            assert_eq!((from, msg), (0, 11));
            assert_eq!(net.graph().port_to(v, 0), Some(port));
        }
        assert_eq!(net.metrics().classical_messages, 5);
    }

    #[test]
    fn round_history_tracks_rounds() {
        let mut net = small_net(false);
        net.send(0, 1, 1).unwrap();
        net.advance_round();
        net.advance_round();
        assert_eq!(net.round_history().len(), 2);
        assert_eq!(net.round_history()[0].messages, 1);
        assert_eq!(net.round_history()[1].messages, 0);
    }

    #[test]
    fn swap_inbox_rotates_buffers() {
        let mut net = small_net(false);
        let mut scratch: Vec<(usize, usize, u64)> = Vec::with_capacity(4);
        net.send(0, 1, 5).unwrap();
        net.advance_round();
        net.swap_inbox(1, &mut scratch);
        assert_eq!(scratch, vec![(0, 0, 5)]);
        assert!(net.inbox(1).is_empty());
        // A second round reuses the rotated storage.
        net.send(2, 1, 6).unwrap();
        net.advance_round();
        net.swap_inbox(1, &mut scratch);
        assert_eq!(scratch, vec![(2, 1, 6)]);
    }
}
