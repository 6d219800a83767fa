//! Proves the acceptance criterion of the CSR refactor: steady-state rounds
//! of the CONGEST round engine perform **zero heap allocation** — including
//! with the telemetry layer compiled in but off (the default), which is the
//! telemetry sidecar's zero-cost-when-absent guarantee — and that a sparse
//! round runs callbacks on, and asks `idle()`/`halted()` of, only its active
//! nodes.
//!
//! The shared tracking allocator (`tests/support`) wraps the system
//! allocator with per-thread counters; after a warm-up phase (buffer
//! capacities growing to their steady state), a window of several hundred
//! message-carrying rounds must allocate nothing. Tracking is per-thread,
//! so the other tests in this binary cannot pollute the window.

mod support;

use std::cell::Cell;

use congest_net::{topology, NetworkConfig, NodeProgram, Outbox, Port, RoundContext, SyncRuntime};

#[global_allocator]
static ALLOCATOR: support::TrackingAllocator = support::TrackingAllocator;

/// A program that broadcasts a token every round and never halts: every
/// directed edge carries a message every round, exercising the send path,
/// CONGEST enforcement, delivery, and the inbox/outbox buffers at full load.
#[derive(Debug)]
struct Chatter;

impl NodeProgram for Chatter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        outbox.send_all(ctx.degree, ctx.round);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        _incoming: &[(Port, u64)],
        outbox: &mut Outbox<u64>,
    ) {
        outbox.send_all(ctx.degree, ctx.round);
    }

    fn halted(&self) -> bool {
        false
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let graph = topology::random_regular(64, 4, 3).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |_, _| Chatter);
    // Telemetry is compiled into this engine but must stay off by default:
    // the zero-allocation window below is also the pin that the telemetry
    // branch on the barrier path costs nothing when the sidecar is absent.
    assert!(!runtime.network().telemetry_enabled());
    runtime.start().unwrap();
    // Warm-up: let every buffer (pending, inboxes, scratch, outbox) reach
    // its steady-state capacity.
    for _ in 0..50 {
        runtime.step().unwrap();
    }
    let ((), m) = support::measured(|| {
        for _ in 0..300 {
            runtime.step().unwrap();
        }
    });
    assert_eq!(
        m.allocations, 0,
        "steady-state rounds allocated {} times; the round engine must be allocation-free",
        m.allocations
    );
    // The run above really did carry traffic: 64 nodes × degree 4 × 350+
    // rounds.
    assert!(runtime.metrics().classical_messages > 64 * 4 * 300);
}

/// Forwards every token out of the port it did not arrive on: one token
/// circles the cycle. Every node is idle (it acts only on mail), so before
/// the idle schedule the engine visited all of them every round. A halted
/// relay still forwards the mail it receives, which the trait allows.
/// `calls` counts `on_round` callbacks and `queries` counts `idle()` and
/// `halted()` calls; both are instrumentation, not protocol state.
#[derive(Debug)]
struct Relay {
    calls: u64,
    halted: bool,
    queries: Cell<u64>,
}

impl Relay {
    fn query(&self) {
        self.queries.set(self.queries.get() + 1);
    }
}

impl NodeProgram for Relay {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        if ctx.node == 0 {
            outbox.send(0, 0);
        }
    }

    fn on_round(
        &mut self,
        _ctx: &mut RoundContext<'_>,
        incoming: &[(Port, u64)],
        outbox: &mut Outbox<u64>,
    ) {
        self.calls += 1;
        for &(port, hops) in incoming {
            outbox.send(1 - port, hops + 1);
        }
    }

    fn halted(&self) -> bool {
        self.query();
        self.halted
    }

    fn idle(&self) -> bool {
        self.query();
        true
    }
}

#[test]
fn sparse_rounds_cost_what_their_active_nodes_do() {
    let n = 64;
    let graph = topology::cycle(n).unwrap();
    // Only the last node runs, so a halting check that scans the programs
    // queries all of them.
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |v, _| Relay {
        calls: 0,
        halted: v != n - 1,
        queries: Cell::new(0),
    });
    let calls =
        |runtime: &SyncRuntime<Relay>| -> u64 { runtime.programs().iter().map(|p| p.calls).sum() };
    let queries = |runtime: &SyncRuntime<Relay>| -> u64 {
        runtime.programs().iter().map(|p| p.queries.get()).sum()
    };
    runtime.start().unwrap();
    for _ in 0..200 {
        runtime.step().unwrap();
    }
    let (calls_before, queries_before) = (calls(&runtime), queries(&runtime));
    let ((), m) = support::measured(|| {
        for _ in 0..300 {
            assert!(!runtime.all_halted());
            runtime.step().unwrap();
        }
    });
    assert_eq!(
        m.allocations, 0,
        "sparse rounds allocated {} times; the round engine must be allocation-free",
        m.allocations
    );
    // One token in flight: each round visits exactly its one recipient,
    // not all 64 nodes.
    assert_eq!(calls(&runtime) - calls_before, 300);
    // Re-filing the recipient asks it `idle()` and `halted()` once each,
    // and the halting check reads a count: no node is queried otherwise.
    let per_round = (queries(&runtime) - queries_before) as f64 / 300.0;
    assert!(
        per_round <= 2.0,
        "{per_round} idle/halted queries per round; a sparse round must not scan the nodes"
    );
}

/// The tracker's peak-bytes gauge plugs into the telemetry sidecar's
/// optional `peak_bytes` field: it rides in the wall (non-deterministic)
/// half of the report, renders in the JSONL schema as a number, and never
/// leaks into the deterministic projection.
#[test]
fn peak_bytes_feeds_the_telemetry_report() {
    let graph = topology::random_regular(32, 4, 7).unwrap();
    let (mut report, m) = support::measured(|| {
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(9), |_, _| Chatter);
        runtime.enable_telemetry();
        runtime.start().unwrap();
        for _ in 0..20 {
            runtime.step().unwrap();
        }
        runtime.take_telemetry().expect("telemetry was enabled")
    });
    assert!(m.peak_bytes > 0, "the run surely allocated something");
    assert_eq!(
        report.wall.peak_bytes, None,
        "engine leaves the field unset"
    );
    report.wall.peak_bytes = Some(m.peak_bytes);
    let line = report.to_jsonl("peak-bytes-cell");
    assert!(
        line.contains(&format!("\"peak_bytes\":{}", m.peak_bytes)),
        "peak bytes must render in the wall half: {line}"
    );
    assert!(
        !report
            .deterministic_jsonl("peak-bytes-cell")
            .contains("peak_bytes"),
        "peak bytes must stay out of the deterministic projection"
    );
}
