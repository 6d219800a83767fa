//! # congest-net
//!
//! A deterministic, single-process simulator of the synchronous **CONGEST**
//! message-passing model of distributed computing (Peleg, 2000), as used by
//! the paper *Quantum Communication Advantage for Leader Election and
//! Agreement* (PODC 2025).
//!
//! The model implemented here (paper, Section 2.1):
//!
//! * The network is an undirected connected graph `G = (V, E)` of `n` nodes.
//! * Computation advances in synchronous rounds. In every round each node may
//!   send at most one message of `O(log n)` bits per incident edge, receive
//!   the messages sent to it in the same round, and perform local computation.
//! * Nodes are anonymous and start in the clean-network (KT0) state: each node
//!   only knows its own ports, numbered `0..deg(v)`, one per incident edge.
//! * Every node has a private, unbiased source of random bits; optionally the
//!   whole network shares a global coin (used only by the agreement protocol
//!   of Section 6).
//!
//! The crate provides:
//!
//! * [`Graph`] and a library of topology generators ([`topology`]),
//! * a metered [`Network`] handle through which protocols send messages and
//!   advance rounds (all message/round accounting lives here, including the
//!   separate *quantum* message meter of Section 3.1 of the paper),
//! * an actor-style synchronous [`runtime`] for protocols written as per-node
//!   state machines, with reference programs in [`programs`],
//! * random-walk machinery and mixing-time estimation ([`walks`]).
//!
//! # Performance architecture
//!
//! The simulator's data plane is built so that a steady-state round performs
//! **zero heap allocation** and no hashing. Three design decisions carry
//! this, and each comes with an invariant the rest of the crate relies on:
//!
//! ## 1. Dual-backend graph with a closed-form reverse-port map
//!
//! [`Graph`] hides one of two adjacency backends behind a single API.
//! Random/irregular topologies store flat `offsets` / `neighbors` arrays
//! (compressed sparse row) plus a precomputed `rev_port` table. Structured
//! families (complete, star, cycle, hypercube, torus) store only their
//! *parameters* and compute `neighbor(v, p)`, `edge_id(v, p)` and
//! `reverse_port` from closed forms — a million-node `K_n` is a few bytes,
//! not the ~8 TiB its CSR adjacency would occupy. [`Graph::materialize`]
//! produces the CSR twin with the identical neighbour order, port numbering
//! and edge-id layout, so fault-free runs are byte-identical across backends.
//!
//! **Invariant:** for every edge id `e = edge_id(v, p)` with target `u`,
//! `neighbor(u, reverse_port(e)) == v`, and
//! `reverse_edge(reverse_edge(e)) == e` — on *both* backends. Consequently
//! the arrival port of a message is an O(1) lookup (array read or closed
//! form) at send time; nothing on the delivery path ever scans or searches
//! an adjacency list. The *send* side is another matter:
//! [`Network::send`] addresses a neighbour by id and resolves its port with
//! [`Graph::port_to`], a binary search over the sender's row on CSR
//! (`O(log deg)`; closed form on implicit families). Protocol loops that
//! already know the port, such as QWLE's referee probes, use
//! [`Network::send_through_port`], which is O(1) on both backends.
//!
//! ## 2. Round-stamped edge usage, sized by what a node sends
//!
//! The CONGEST one-message-per-directed-edge rule is enforced by one
//! 16-byte send-state slot per node, filled on the node's **first send** —
//! a node that never sends costs the empty slot and nothing else.
//!
//! * A node of degree at most 64 gets a *stamp page*: `deg(v)` round
//!   stamps, one per port (at most 512 B), and a port is busy iff its stamp
//!   equals the current `round_stamp`.
//! * A node of higher degree gets a *send log*: up to 14 ports used in one
//!   round, tagged with that round's stamp. The log is promoted to a page,
//!   keeping its ports' stamps, when the node sends more messages in one
//!   round than it holds, or broadcasts.
//!
//! So stamp state costs memory in proportion to what a node sends in a
//! round, not to its degree, until it sends more than a log holds: on `K_n`
//! the referees that answer a few queries stay on 128-byte logs instead of
//! `8·(n − 1)`-byte pages, and the former O(E) flat array (terabytes on an
//! implicit `K_n`) is long gone. Advancing a round just increments
//! `round_stamp`.
//!
//! **Invariant:** `round_stamp` is strictly monotone (`advance_round` adds 1,
//! `skip_rounds(r)` adds `r`), so a stamp written in an earlier round can
//! never compare equal again — a stale page entry, or a log whose stamp is
//! stale (which counts as empty), needs no clearing, and enforcement is one
//! load + compare + store on a page or a scan of at most 14 ports on a log,
//! with no `HashSet` in sight.
//!
//! ## 3. Double-buffered inboxes and outboxes
//!
//! [`Network`] owns one reusable `pending` buffer and one inbox `Vec` per
//! node (cleared via a dirty list, capacity retained).
//! [`SyncRuntime`] owns its delivery and outbox
//! scratch and rotates inbox storage through [`Network::swap_inbox`], so
//! driving `n` programs allocates nothing once capacities have warmed up.
//! A sequential round visits only the nodes on an n-bit schedule — those
//! not [`idle`](NodeProgram::idle) after their last callback, those the
//! barrier delivered to (the dirty list) and those recovering this round —
//! so it costs O(n/64 + active), and `all_halted` reads a count of running
//! programs unless the fault plan crashes nodes. `tests/zero_alloc.rs` in
//! the workspace root pins a one-token round on a 64-node cycle at one
//! callback and at most two `idle`/`halted` queries.
//!
//! **Invariant:** buffers are only ever `clear()`ed or `swap()`ed on the
//! round path — any code that `take`s, drops, or reallocates one of them in
//! steady state is a regression (`tests/zero_alloc.rs` counts allocations
//! over steady-state windows and fails on any).
//!
//! ## 4. Sharded round execution with a deterministic barrier merge
//!
//! [`SyncRuntime`] can execute a round with `k`
//! worker shards on the `rayon` shim's persistent thread pool
//! ([`NetworkConfig::shards`], or the `CONGEST_SHARDS` environment variable;
//! `k = 1` — the default — is exactly the sequential path above). Nodes are
//! partitioned into `k` contiguous ranges balanced by directed-edge count
//! ([`Graph::shard_boundaries`]), and each shard receives an exclusive
//! [`ShardView`]: its nodes' inboxes and private RNG streams, its own outbox
//! queue and send counters, and a contiguous, disjoint slice of the
//! send-state table covering precisely its nodes' outgoing directed edges.
//! A shard only ever sends from its own nodes, so **CONGEST edge-busy
//! enforcement never touches another shard's stamps**, and the `rev_port`
//! table resolves every arrival port at send time, so delivery needs no
//! receiver-side coordination either; a round body is entirely
//! synchronisation-free.
//!
//! **Invariant (deterministic barrier merge):** at the round barrier,
//! [`Network::advance_round`] drains the sequential pending buffer first and
//! then every shard's outbox queue *in shard order*. Shards fill their
//! queues in node order over contiguous, ascending node ranges, so the
//! concatenation equals the global node-order send sequence of the
//! sequential engine — inbox contents, [`Metrics`], per-round history
//! (per-shard counters are absorbed in shard order), and every per-node RNG
//! stream are **byte-identical for every shard count**. The determinism
//! suite pins this at shard counts {1, 2, 4, 8} and CI re-runs the whole
//! test suite with `CONGEST_SHARDS=4`. Anything that makes behaviour depend
//! on shard count — sends merged out of node order, counters folded out of
//! shard order, an RNG stream shared across nodes — is a regression. (The
//! invariant is scoped to error-free executions: a send error — always a
//! protocol bug — aborts the round before the barrier under any shard
//! count, with the lowest shard's error reported deterministically, but
//! which *other* nodes ran before the error surfaced differs.)
//!
//! Sharded rounds allocate O(k) task envelopes for pool dispatch (the
//! zero-allocation guarantee of §3 is a property of the sequential path);
//! the per-message hot paths stay allocation-free, and speedup requires
//! real cores and enough per-round work to amortise the barrier. Because
//! both paths are byte-identical, the runtime schedules **adaptively**:
//! rounds that delivered fewer than
//! [`runtime::ADAPTIVE_SEQUENTIAL_THRESHOLD`] messages run on the calling
//! thread even with `k > 1` — the switch can only trade wall-clock time.
//!
//! ## 5. Fault injection at the barrier
//!
//! A [`FaultPlan`] (seeded per-message drops, per-link outage windows,
//! per-link latency, crash-stop nodes, and crash-recovery windows) can be
//! installed on any network ([`Network::set_fault_plan`]). All fault
//! decisions are made inside [`Network::advance_round`] in **delivery
//! order** — exactly the deterministic merge order of §4 — so a faulty run
//! is byte-identical for every shard count, and for a fixed plan it is
//! exactly as reproducible as a fault-free one. Dropped messages count as
//! sent (the sender paid for them) and are tallied separately in
//! [`Metrics::dropped_messages`]; crashed nodes are skipped by both round
//! engines and counted in [`Metrics::crashed_nodes`]. An optional
//! round-stamped [trace sink](Network::enable_trace) records every fault
//! event, which is what the scenario engine's replay mode re-verifies.
//!
//! Latency faults make the delivery queue **span rounds**: delayed messages
//! are parked on a heap keyed by `(due round, delivery-order sequence
//! number)` and drained at their due barrier in that order. Both the park
//! decision and the sequence number are assigned in delivery order, so the
//! cross-round drain order is byte-identical for every shard count too —
//! the shard-invariance invariant survives cross-round delivery (pinned by
//! the fault-plane suite's latency goldens and property tests).
//!
//! Beyond the benign classes, the plan models an **adversary**: Byzantine
//! windows ([`FaultPlan::byzantine`]) in which a node's surviving outgoing
//! messages are rewritten through the [`Payload::mutate`] hook — each
//! message drawing independently from a dedicated, salted PRNG stream, so a
//! lying node can *equivocate* (send different corruptions per port in the
//! same round) — and adversarial drop scheduling
//! ([`FaultPlan::adversarial_drops`]), which strikes up to `k` *frontier*
//! messages per round (first uses of a directed link in the run) instead of
//! sampling uniformly. Both are judged at the same barrier in the same
//! delivery order, mutation draws and strike selections consume their own
//! streams (never the drop lottery's), and mutation is the **only** code
//! path that rewrites a payload — so adversarial runs keep the
//! byte-identical-across-shards guarantee, and [`Metrics::mutated_messages`]
//! plus the `MessageMutated`/`MessageEquivocated` trace events make every
//! lie observable.
//!
//! Faults are **protocol-visible**, not just metric-visible:
//! [`runtime::RoundContext::failed_neighbors`] is a perfect failure
//! detector fed by the fault clock, and
//! [`runtime::NodeProgram::on_recover`] is invoked (instead of the round
//! callback) when a crash-recovery window ends, so node programs can
//! implement genuinely fault-tolerant variants —
//! [`programs::FloodFt`] is the reference example for omission faults,
//! [`programs::FloodBft`] (checksum-tagged tokens, bounded retransmission)
//! the one for Byzantine mutation.
//!
//! **Invariant:** without an installed plan, delivery takes the untouched
//! fast path of §3 — and installing an *empty* plan is byte-identical to
//! installing none (pinned by the workspace fault-plane suite).
//!
//! ## 6. Event mode: the round loop under a scheduler adversary
//!
//! Partial synchrony needs no second engine. A scheduler adversary
//! ([`SchedulerSpec`], installed via [`Network::set_scheduler`]; see the
//! [`event`] module) chooses a delivery delay in `0..=bound` for every
//! message — at the barrier, in delivery order, from a dedicated salted
//! PRNG stream, generalising the latency heap of §5 into a global event
//! heap keyed by `(due time, seq)`. [`SyncRuntime`], and every protocol that
//! drives [`Network`] directly, runs unchanged over such a network; that is
//! all event mode ([`ExecMode::Event`]) is. Under the `synchronous`
//! scheduler every delay is 0, so an event-mode run equals the round-mode
//! run **byte-for-byte** (metrics, history, and trace), which is what keeps
//! the two models comparable; the full execution-model contract — clock
//! semantics, the scheduler catalogue, the equivalence theorem, and the
//! replay guarantee — lives in `docs/EXECUTION_MODELS.md` in the
//! repository root.
//!
//! **Invariant:** scheduler decisions are made only at the barrier, in the
//! delivery order the §4 merge fixes, and consume only the scheduler's own
//! stream, so an event-mode run is byte-identical for every shard count —
//! sharded rounds included — and replays exactly, like every other
//! execution (pinned by the workspace `event_mode` suite and the [`event`]
//! module's sharded replay test).
//!
//! ## 7. The telemetry sidecar
//!
//! The [`telemetry`] module provides an **opt-in** observability layer:
//! per-round phase spans (node-step, barrier-merge, fault-judge,
//! scheduler-oracle), per-shard busy-time and message counters, and
//! deterministic log2-bucket histograms (messages per round, inbox sizes,
//! and — in event mode — heap depth and scheduler skew). It is enabled per
//! run via [`Network::enable_telemetry`] (or the `SyncRuntime` wrapper) and
//! harvested with [`Network::take_telemetry`] into a [`TelemetryReport`].
//!
//! **Invariant (determinism boundary):** telemetry lives strictly *outside*
//! the determinism domain. Wall-clock readings go only into the report's
//! segregated [`telemetry::WallTelemetry`] half; the
//! [`telemetry::DeterministicTelemetry`] half is derived exclusively from
//! barrier-merged quantities and is byte-identical for every shard count.
//! Telemetry never touches [`Metrics`], round history, the fault trace, or
//! any PRNG stream, and when it is off (the default) the steady-state round
//! path performs no allocations and no timing calls — one predictable
//! branch per barrier, pinned by the workspace zero-allocation suite. The
//! full schema and the `experiments --profile` walkthrough live in
//! `docs/OBSERVABILITY.md` in the repository root.
//!
//! `docs/ARCHITECTURE.md` in the repository root consolidates this section
//! with the scenario-engine and state-vector architecture notes into one
//! narrative; treat the invariants stated here as the authoritative ones
//! for this crate.
//!
//! # Example
//!
//! ```
//! use congest_net::{topology, Network, NetworkConfig};
//!
//! # fn main() -> Result<(), congest_net::Error> {
//! let graph = topology::complete(8)?;
//! let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(7));
//! net.send(0, 3, 42)?;
//! net.advance_round();
//! // Deliveries carry (sender, arrival port, payload); in K_8 node 3's
//! // port 0 leads back to node 0.
//! assert_eq!(net.inbox(3), &[(0, 0, 42)]);
//! assert_eq!(net.metrics().classical_messages, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod fault;
pub mod graph;
pub mod message;
pub mod metrics;
pub mod network;
pub mod programs;
pub mod runtime;
pub mod telemetry;
pub mod topology;
pub mod walks;

pub use error::Error;
pub use event::{ExecMode, SchedulerKind, SchedulerSpec};
pub use fault::{
    ByzantineWindow, CrashPoint, DropCause, FaultPlan, LinkLatency, LinkOutage, TraceEvent,
};
pub use graph::{EdgeId, Graph, Neighbors, NodeId, Port};
pub use message::Payload;
pub use metrics::{Metrics, RoundReport};
pub use network::{Delivery, Network, NetworkConfig, ShardView};
pub use runtime::{NodeProgram, Outbox, RoundContext, SyncRuntime};
pub use telemetry::{DeterministicTelemetry, Log2Histogram, Phase, TelemetryReport, WallTelemetry};
