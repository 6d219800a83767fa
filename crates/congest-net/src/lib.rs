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
//! * spectral-gap and mixing-time estimation for random walks ([`walks`]).
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
//! *parameters* and compute `neighbor(v, p)` and `reverse_port_at(v, p)`
//! from closed forms — a million-node `K_n` is a few bytes, not the ~8 TiB
//! its CSR adjacency would occupy. [`Graph::materialize`] produces the CSR
//! twin with the identical neighbour order, port numbering and reverse
//! ports, so fault-free runs are byte-identical across backends.
//!
//! **Invariant:** for every port `p` of `v` with `u = neighbor(v, p)` and
//! `rp = reverse_port_at(v, p)`, `neighbor(u, rp) == v` and
//! `reverse_port_at(u, rp) == p` — on *both* backends. Consequently
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
//! * A node of higher degree gets a *port set*: an open-addressed hash set
//!   of `(stamp, port)` slots holding the ports it used in one round. The
//!   set doubles, keeping only the current round's ports, when it would be
//!   over half full, and becomes a page, keeping their stamps, when
//!   doubling would make it bigger than the page (16 B per slot against
//!   8 B per port).
//!
//! So stamp state costs memory in proportion to what a node sends in a
//! round, not to its degree: on `K_n` a referee that answers one query a
//! round keeps a 48-byte set instead of an `8·(n − 1)`-byte page, a
//! candidate that contacts `s` referees in one round keeps fewer than
//! `4·s` slots, and the former O(E) flat array (terabytes on an implicit
//! `K_n`) is long gone. A node that sends through an eighth to a quarter of
//! its ports in one round ends on a page. Advancing a round just increments
//! `round_stamp`.
//!
//! **Invariant:** `round_stamp` is strictly monotone (`advance_round` adds 1,
//! `skip_rounds(r)` adds `r`), so a stamp written in an earlier round can
//! never compare equal again — a stale page entry, or a set slot whose
//! stamp is stale (which counts as free), needs no clearing, and
//! enforcement is one load + compare + store on a page or an expected O(1)
//! probe of a set that is at most half full.
//!
//! ## 3. Double-buffered inboxes and outboxes
//!
//! [`Network`] owns one reusable `pending` buffer and one inbox `Vec` per
//! node (cleared via a dirty list, capacity retained).
//! [`SyncRuntime`] owns its delivery and outbox
//! scratch and rotates inbox storage through [`Network::swap_inbox`], so
//! driving `n` programs allocates nothing once capacities have warmed up.
//! A round visits only the nodes on an n-bit schedule — those not
//! [`idle`](NodeProgram::idle) after their last callback, those the
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
//! **Invariant (delivery order is send order):** every round runs on the
//! calling thread, and [`Network::advance_round`] drains the one `pending`
//! buffer front to back, so each inbox lists its messages in the order they
//! were sent. The runtime visits nodes in ascending order and flushes each
//! node's outbox before the next node runs, so for a runtime-driven
//! protocol the delivery order is node order, then port-queue order. Inbox
//! contents, [`Metrics`], per-round history, and every per-node RNG stream
//! are therefore a function of the seed alone.
//!
//! ## 4. Fault injection at the barrier
//!
//! A [`FaultPlan`] (seeded per-message drops, per-link outage windows,
//! per-link latency, crash-stop nodes, and crash-recovery windows) can be
//! installed on any network ([`Network::set_fault_plan`]). All fault
//! decisions are made inside [`Network::advance_round`] in **delivery
//! order**, which is send order (§3), so for a fixed plan a faulty run is
//! exactly as reproducible as a fault-free one. Dropped messages count as
//! sent (the sender paid for them) and are tallied separately in
//! [`Metrics::dropped_messages`]; crashed nodes are skipped by the round
//! loop and counted in [`Metrics::crashed_nodes`]. An optional
//! round-stamped [trace sink](Network::enable_trace) records every fault
//! event, which is what the scenario engine's replay mode re-verifies.
//!
//! Latency faults make the delivery queue **span rounds**: delayed messages
//! are parked in a FIFO bucket per due round and drained at their due
//! barrier, bucket by bucket in due order and each bucket in parking order.
//! Messages are parked in delivery order, so the cross-round drain order is
//! a function of the send order too (pinned by the fault-plane suite's
//! latency goldens and drain-order test).
//!
//! Beyond the benign classes, the plan models an **adversary**: adversarial
//! drop scheduling ([`FaultPlan::adversarial_drops`]) strikes up to `k`
//! *frontier* messages per round (first uses of a directed link in the run)
//! instead of sampling uniformly. It is judged at the same barrier in the
//! same delivery order, and its strike selections consume their own stream
//! (never the drop lottery's), so adversarial runs replay byte for byte.
//!
//! Faults are **protocol-visible**, not just metric-visible:
//! [`runtime::RoundContext::failed_neighbors`] is a perfect failure
//! detector fed by the fault clock, and
//! [`runtime::NodeProgram::on_recover`] is invoked (instead of the round
//! callback) when a crash-recovery window ends, so node programs can
//! implement genuinely fault-tolerant variants —
//! [`programs::FloodFt`] is the reference example.
//!
//! **Invariant:** without an installed plan, delivery takes the untouched
//! fast path of §3 — and installing an *empty* plan is byte-identical to
//! installing none (pinned by the workspace fault-plane suite).
//!
//! ## 5. Event mode: the round loop under a scheduler adversary
//!
//! Partial synchrony needs no second engine. A scheduler adversary
//! ([`SchedulerSpec`], installed via [`Network::set_scheduler`]; see the
//! [`event`] module) chooses a delivery delay in `0..=bound` for every
//! message — at the barrier, in delivery order, from a dedicated salted
//! PRNG stream. Skewed messages park in the due-round buckets of §4, which
//! thereby serve as one global event queue. [`SyncRuntime`], and every
//! protocol that drives [`Network`] directly, runs unchanged over such a
//! network; that is all event mode ([`ExecMode::Event`]) is. Under the
//! `synchronous` scheduler every delay is 0, so an event-mode run equals
//! the round-mode run **byte-for-byte** (metrics, history, and trace),
//! which is what keeps the two models comparable; the full execution-model
//! contract — clock semantics, the scheduler catalogue, the equivalence
//! theorem, and the replay guarantee — lives in `docs/EXECUTION_MODELS.md`
//! in the repository root.
//!
//! **Invariant:** scheduler decisions are made only at the barrier, in
//! delivery order, which is send order (§3), and consume only the
//! scheduler's own stream, so an event-mode run replays exactly, like every
//! other execution (pinned by the workspace `event_mode` suite and the
//! [`event`] module's replay test).
//!
//! ## 6. The telemetry sidecar
//!
//! The [`telemetry`] module provides an **opt-in** observability layer:
//! per-round phase spans (node-step, barrier-merge, fault-judge,
//! scheduler-oracle) and deterministic log2-bucket histograms (messages per
//! round, inbox sizes, and — in event mode — event-queue depth and
//! scheduler skew). It is enabled per run via [`Network::enable_telemetry`]
//! (or the `SyncRuntime` wrapper) and harvested with
//! [`Network::take_telemetry`] into a [`TelemetryReport`].
//!
//! **Invariant (determinism boundary):** telemetry lives strictly *outside*
//! the determinism domain. Wall-clock readings go only into the report's
//! segregated [`telemetry::WallTelemetry`] half; the
//! [`telemetry::DeterministicTelemetry`] half is derived exclusively from
//! what the barriers delivered, in delivery order (§3), and is
//! byte-identical run to run. Telemetry never touches [`Metrics`], round
//! history, the fault trace, or any PRNG stream, and when it is off (the
//! default) the steady-state round path performs no allocations and no
//! timing calls — one predictable branch per barrier, pinned by the
//! workspace zero-allocation suite. The full schema and the
//! `experiments --profile` walkthrough live in `docs/OBSERVABILITY.md` in
//! the repository root.
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
pub use fault::{CrashPoint, DropCause, FaultPlan, LinkLatency, LinkOutage, TraceEvent};
pub use graph::{Graph, Neighbors, NodeId, Port};
pub use message::Payload;
pub use metrics::{Metrics, RoundReport};
pub use network::{Delivery, Network, NetworkConfig};
pub use runtime::{NodeProgram, Outbox, RoundContext, SyncRuntime};
pub use telemetry::{DeterministicTelemetry, Log2Histogram, Phase, TelemetryReport, WallTelemetry};
