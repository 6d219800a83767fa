//! The million-node acceptance tests for the implicit-topology data plane:
//! structured families at `n = 2^20` must run real protocol workloads with
//! peak graph + round-state memory **O(n + active)** — not the O(E) (for
//! `K_n`: terabytes) that materialized CSR adjacency would cost. The paper's
//! complete-network protocols run at `n = 2^16` under the same kind of
//! ceiling.
//!
//! The shared tracking allocator (`tests/support`) keeps **thread-local**
//! current/peak byte counters, so the concurrently running tests in this
//! binary measure only their own thread's allocations (the sequential round
//! engine with `shards(1)` allocates exclusively on the driving thread).
//!
//! The ceilings below are per-node budgets with headroom (roughly 2× the
//! measured footprint), not tight pins: they exist to catch a reintroduced
//! O(E) or O(n · deg) buffer, which overshoots by orders of magnitude, while
//! staying robust to allocator and shim-library drift.

mod support;

use classical_baselines::KppCompleteLe;
use congest_net::programs::{Flood, FloodFt};
use congest_net::{topology, Network, NetworkConfig, SyncRuntime};
use qle::algorithms::QuantumLe;
use qle::LeaderElection;

#[global_allocator]
static ALLOCATOR: support::TrackingAllocator = support::TrackingAllocator;

/// Runs `body` with byte tracking on, returning `(result, peak_bytes)`.
fn measured<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let (out, m) = support::measured(body);
    (out, m.peak_bytes)
}

const MILLION: usize = 1 << 20;

/// A maximal-degree broadcast on the *complete* graph at 2^20 nodes: the
/// topology whose CSR adjacency alone would be ~8 TiB (2^40 directed edges).
/// The implicit backend makes the graph O(1) and the round O(n + messages):
/// one stamp page for the sender, one pending entry and one inbox slot per
/// recipient.
#[test]
fn million_node_complete_broadcast_stays_lean() {
    let ((), peak) = measured(|| {
        let graph = topology::complete(MILLION).unwrap();
        assert_eq!(graph.degree(0), MILLION - 1);
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(7));
        net.broadcast(0, 42).unwrap();
        net.advance_round();
        assert_eq!(net.metrics().classical_messages, (MILLION - 1) as u64);
        // Spot-check delivery at both ends of the id range (checking all n
        // inboxes is O(n) and fine, but adds nothing).
        assert_eq!(net.inbox(1), &[(0, 0, 42)]);
        assert_eq!(net.inbox(MILLION - 1), &[(0, 0, 42)]);
    });
    // Budget: ~250 B/node covers the per-node state (inbox Vec headers +
    // one-message buffers, RNG streams, send-state slots, dirty list)
    // plus the sender's one full stamp page and the pending buffer. An
    // O(E) = O(n²) buffer would need terabytes and trips this instantly.
    let budget = 250 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// A full fault-oblivious flood over the *star* at 2^20 nodes, driven by the
/// real round engine (`SyncRuntime`, sequential path): covers every node,
/// and peak memory stays linear in n even though the centre's stamp page and
/// the two full-traffic rounds are maximal.
#[test]
fn million_node_star_flood_covers_and_stays_lean() {
    let (runtime, peak) = measured(|| {
        let graph = topology::star(MILLION).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3).shards(1), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(64).unwrap();
        // Centre → all leaves, leaves ack-broadcast back, everyone halts.
        assert!(rounds <= 8, "star flood took {rounds} rounds");
        runtime
    });
    let covered = (0..MILLION)
        .filter(|&v| runtime.programs()[v].has_token())
        .count();
    assert_eq!(covered, MILLION, "flood must reach every node");
    assert!(
        runtime.metrics().classical_messages >= 2 * (MILLION as u64 - 1),
        "token out plus echo back"
    );
    // Budget: ~400 B/node — per-node program + inbox + RNG + outbox scratch
    // and both directions' stamp pages (star has m = n − 1, so O(m) traffic
    // is O(n) here by construction).
    let budget = 400 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// The fault-tolerant flood ([`FloodFt`], fault-free) over the same
/// 2^20-leaf star: the token goes out and every leaf acknowledges it, on
/// per-port ack state that the centre holds for all 2^20 − 1 of its ports.
/// The run must cover every node with peak memory linear in n.
#[test]
#[ignore = "heavyweight (six million messages); CI runs it in release"]
fn million_node_star_flood_ft_covers_and_stays_lean() {
    let (runtime, peak) = measured(|| {
        let graph = topology::star(MILLION).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(3).shards(1), |v, d| {
            FloodFt::new(v == 0, d)
        });
        let rounds = runtime.run_until_halt(64).unwrap();
        assert!(rounds <= 8, "star flood-ft took {rounds} rounds");
        runtime
    });
    let covered = (0..MILLION)
        .filter(|&v| runtime.programs()[v].has_token())
        .count();
    assert_eq!(covered, MILLION, "flood-ft must reach every node");
    assert!(
        runtime.metrics().classical_messages >= 2 * (MILLION as u64 - 1),
        "token out plus ack back"
    );
    // Measured: 4 rounds, 6,291,450 messages, peak 455 MB (434 B/node).
    // The budget is about twice that; an O(n · deg) buffer at the centre
    // would need terabytes.
    let budget = 870 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// A full flood over the 20-dimensional hypercube: 2^20 nodes, ~10.5M
/// undirected edges, every directed edge eventually active — the heavyweight
/// tier exercised in CI's release-mode large-n smoke job (`--include-ignored`).
/// Here "active" genuinely is Θ(E), so the budget scales with the traffic,
/// not the node count; the point pinned is that *graph* storage stays O(1)
/// and nothing quadratic sneaks in.
#[test]
#[ignore = "heavyweight (tens of millions of messages); CI runs it in release"]
fn million_node_hypercube_flood_completes() {
    let (runtime, peak) = measured(|| {
        let graph = topology::hypercube(20).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5).shards(1), |v, _| {
            Flood::new(v == 0)
        });
        let rounds = runtime.run_until_halt(64).unwrap();
        assert!(
            (20..=24).contains(&rounds),
            "hypercube flood took {rounds} rounds (diameter 20)"
        );
        runtime
    });
    let covered = (0..MILLION)
        .filter(|&v| runtime.programs()[v].has_token())
        .count();
    assert_eq!(covered, MILLION, "flood must reach every node");
    // Each covered node broadcasts once — 2E sends — plus at most one extra
    // announcement round from the source.
    let messages = runtime.metrics().classical_messages;
    assert!(
        (20 * MILLION as u64..=20 * MILLION as u64 + 40).contains(&messages),
        "unexpected message count {messages}"
    );
    // Budget: stamp pages (8 B × 20 per node) + peak-round pending/inbox
    // buffers (a diameter-step frontier's sends), comfortably linear in the
    // active edge set. 2 KiB/node ≈ 2 GiB total with headroom.
    let budget = 2048 * MILLION as u64;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds O(n + active) budget {budget}"
    );
}

/// The paper's `QuantumLE` with the scenario registry's defaults
/// (`k = n^{1/3}`, `α = 1/n²`) on implicit `K_65536`. About 133 candidates
/// each send their rank to 40 referees, then run a Grover search in which
/// every check makes one node reply once. Nodes of degree above 64 start
/// CONGEST enforcement on a send log of a few ports, so the replying nodes
/// never allocate a 512 KiB stamp page; only the candidates, which send
/// 40 ranks in one round, are promoted to one.
///
/// `n = 2^20` waits for the candidates' own pages to go: there ~166
/// candidates hold an 8 MiB page each, and the run peaks at about 1.66 GB
/// resident (11 s in release on a 2-vCPU host; KPP: 1.36 GB, 2.4 s).
#[test]
fn quantum_le_on_complete_65536_stays_lean() {
    let (leaders, peak) = measured(|| {
        let graph = topology::complete(1 << 16).unwrap();
        let run = QuantumLe::new().run(&graph, 1).unwrap();
        run.outcome.leaders().len()
    });
    assert_eq!(leaders, 1, "QuantumLE must elect exactly one leader");
    // Measured peak: 95.5 MB, most of it the candidates' stamp pages. The
    // budget is about twice that; a page for every sender needed ~11.4 GB.
    let budget = 190_000_000;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds QuantumLE budget {budget}"
    );
}

/// The classical `Õ(√n)` baseline on implicit `K_65536`: about 133
/// candidates each contact ~850 random referees in one round (so each is
/// promoted to a stamp page), and every referee answers the few candidates
/// that contacted it from its send log.
#[test]
fn kpp_complete_le_on_complete_65536_stays_lean() {
    let (leaders, peak) = measured(|| {
        let graph = topology::complete(1 << 16).unwrap();
        let run = KppCompleteLe::new().run(&graph, 1).unwrap();
        run.outcome.leaders().len()
    });
    assert_eq!(leaders, 1, "KPP must elect exactly one leader");
    // Measured peak: 103.9 MB, most of it the candidates' stamp pages. The
    // budget is about twice that; a page for every sender needed ~780 MB.
    let budget = 210_000_000;
    assert!(
        peak <= budget,
        "peak {peak} bytes exceeds KPP budget {budget}"
    );
}
