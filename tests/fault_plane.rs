//! Fault-injection plane regression tests.
//!
//! Two layers of protection, mirroring the determinism suite:
//!
//! 1. **Transparency:** installing an *empty* [`FaultPlan`] must be
//!    byte-identical (metrics + per-round history) to the pristine
//!    fault-free path — the fault plane may not perturb healthy runs
//!    (property-based).
//! 2. **Golden values:** faulty Flood, FloodFt, FloodBft and GHS-LE
//!    configurations are pinned exactly, including the fault counters and
//!    the event trace length. Any engine/PRNG change that shifts them is a
//!    behavioural change and must be made deliberately.

use classical_baselines::GhsLe;
use congest_net::programs::{Flood, FloodBft, FloodFt};
use congest_net::{
    topology, DropCause, FaultPlan, Metrics, Network, NetworkConfig, RoundReport, SchedulerSpec,
    SyncRuntime, TraceEvent,
};
use proptest::prelude::*;
use qle::{LeaderElection, RunOptions};

fn flood_run(
    graph: &congest_net::Graph,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> (u64, Metrics, Vec<RoundReport>, Vec<bool>) {
    let mut runtime = SyncRuntime::new(
        graph.clone(),
        NetworkConfig::with_seed(seed).track_history(true),
        |v, _| Flood::new(v == 0),
    );
    if let Some(plan) = plan {
        runtime.set_fault_plan(plan);
    }
    let rounds = runtime.run_until_halt(500).unwrap();
    let history = runtime.network().round_history().to_vec();
    let metrics = runtime.metrics();
    let (programs, _) = runtime.into_parts();
    let tokens = programs.into_iter().map(|p| p.has_token()).collect();
    (rounds, metrics, history, tokens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An empty fault plan exercises the fault-checked delivery path but
    /// must be byte-identical — metrics, history, and protocol outcomes —
    /// to running without a plan. The plan is built
    /// with the *extended* constructors too (a zero-delay latency and an
    /// empty recovery window, both discarded at plan level), so the
    /// extended fault model keeps the transparency guarantee.
    #[test]
    fn empty_fault_plan_is_byte_identical_to_fault_free(
        n in 8usize..48,
        seed in 0u64..200,
    ) {
        let graph = topology::erdos_renyi_connected(n, 0.2, seed).unwrap();
        let pristine = flood_run(&graph, seed, None);
        // An empty Byzantine window and an identity adversary (k = 0) are
        // discarded at plan level like the zero-delay latency and the empty
        // recovery window — the adversarial classes keep the transparency
        // guarantee.
        let empty = FaultPlan::new(seed ^ 0xDEAD)
            .link_latency(0, 1, 0)
            .crash_recover(2, 5, 5)
            .byzantine(2, 5, 5)
            .adversarial_drops(0);
        prop_assert!(empty.is_empty());
        let run = flood_run(&graph, seed, Some(&empty));
        prop_assert_eq!(&run, &pristine);
        prop_assert_eq!(run.1.dropped_messages, 0);
        prop_assert_eq!(run.1.delayed_messages, 0);
        prop_assert_eq!(run.1.mutated_messages, 0);
        prop_assert_eq!(run.1.crashed_nodes, 0);
    }

    /// `DropCause::parse(label(x)) == x` for every registered cause, and a
    /// pseudo-random label over the labels' alphabet parses iff it equals a
    /// registered label — so the two hand-written match arms in `fault.rs`
    /// cannot silently drift when a cause is added.
    #[test]
    fn drop_cause_labels_round_trip_and_unknowns_are_rejected(
        seed in 0u64..1_000_000,
        len in 0usize..16,
    ) {
        for cause in DropCause::ALL {
            prop_assert_eq!(DropCause::parse(cause.label()), Some(cause));
        }
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz-".chars().collect();
        let mut s = seed;
        let label: String = (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                alphabet[(s >> 33) as usize % alphabet.len()]
            })
            .collect();
        let known = DropCause::ALL.iter().any(|c| c.label() == label);
        prop_assert_eq!(DropCause::parse(&label).is_some(), known, "label = {:?}", label);
    }
}

/// The golden faulty-Flood configuration: Q6 hypercube, drops + an outage +
/// two crashes. Values captured on the fault plane as introduced.
#[test]
fn faulty_flood_golden() {
    let plan = FaultPlan::new(13)
        .drop_probability(0.05)
        .link_outage(0, 1, 0, 3)
        .crash(9, 1)
        .crash(40, 4);
    let graph = topology::hypercube(6).unwrap();
    let (rounds, metrics, history, tokens) = flood_run(&graph, 9, Some(&plan));
    // Crashed nodes count as halted, so the run terminates when every live
    // node holds the token — one round shorter than fault-free Q6 is not
    // guaranteed, but for this plan the wave finishes in 7.
    assert_eq!(rounds, 7);
    assert_eq!(metrics.classical_messages, 378);
    assert_eq!(metrics.dropped_messages, 27);
    assert_eq!(metrics.crashed_nodes, 2);
    assert_eq!(metrics.peak_messages_per_round, 132);
    assert_eq!(metrics.total_bits, 378);
    assert_eq!(history.len(), 7);
    let dropped_per_round: u64 = history.iter().map(|r| r.dropped).sum();
    assert_eq!(dropped_per_round, metrics.dropped_messages);
    // Node 9 crashed at round 1, before the wave arrived; node 40 crashed
    // at round 4, after it already held the token.
    assert_eq!(tokens.iter().filter(|&&t| !t).count(), 1);
    assert!(!tokens[9]);
}

/// The golden faulty GHS-LE configuration, driven through
/// `LeaderElection::run_with`. Since the inbox-driven rewrite of the
/// cluster-probe phase, faults change GHS's *control flow*, not just its
/// counters: a crashed node sends no queries, a dropped query produces no
/// reply, and a dropped reply removes an outgoing-edge proposal — so the
/// send totals genuinely differ from the fault-free run (2583 messages,
/// pinned in tests/determinism.rs) while the election outcome here still
/// succeeds. The exact counters are pinned.
#[test]
fn faulty_ghs_golden_with_trace() {
    let graph = topology::erdos_renyi_connected(48, 0.15, 7).unwrap();
    let opts = RunOptions {
        fault_plan: Some(
            FaultPlan::new(21)
                .drop_probability(0.02)
                .link_outage(3, 5, 2, 8)
                .crash(11, 5),
        ),
        trace: true,
        ..RunOptions::default()
    };
    let a = GhsLe::new().run_with(&graph, 5, &opts).unwrap();
    let b = GhsLe::new().run_with(&graph, 5, &opts).unwrap();
    assert_eq!(a, b, "faulty GHS runs must be deterministic");
    assert!(a.run.succeeded());
    assert!(
        a.run.cost.total_messages() < 2583,
        "faults must now reduce sends (no replies to dropped queries), got {}",
        a.run.cost.total_messages()
    );
    assert_eq!(a.run.cost.total_messages(), 2522);
    assert_eq!(a.run.cost.metrics.rounds, 78);
    assert_eq!(a.run.cost.metrics.dropped_messages, 82);
    assert_eq!(a.run.cost.metrics.crashed_nodes, 1);
    assert_eq!(a.trace.len(), 83, "82 drops + 1 crash event");
    assert!(a
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeCrashed { node: 11, round: 5 })));
}

/// GHS under drops, an outage and a crash runs the same on the implicit
/// torus as on its CSR twin: the port maps agree, so every send, drop and
/// trace event lands in the same place.
#[test]
fn faulty_ghs_is_identical_on_implicit_and_csr_tori() {
    let torus = topology::torus(12, 20).unwrap();
    let csr = torus.materialize();
    assert!(torus.is_implicit() && !csr.is_implicit());
    let opts = RunOptions {
        fault_plan: Some(
            FaultPlan::new(21)
                .drop_probability(0.05)
                .link_outage(3, 4, 2, 8)
                .crash(37, 5),
        ),
        trace: true,
        ..RunOptions::default()
    };
    let a = GhsLe::new().run_with(&torus, 5, &opts).unwrap();
    let b = GhsLe::new().run_with(&csr, 5, &opts).unwrap();
    assert_eq!(a, b, "implicit and CSR tori must give the same run");
    assert_eq!(a.run.cost.total_messages(), 16_581);
    assert_eq!(a.run.cost.metrics.rounds, 437);
    assert_eq!(a.run.cost.metrics.dropped_messages, 881);
    assert_eq!(a.run.cost.metrics.crashed_nodes, 1);
    assert_eq!(a.trace.len(), 882, "881 drops + 1 crash event");
    assert_eq!(a.run.cost.effective_rounds, 1_679);
}

/// Crash semantics on the runtime: a crashed node is skipped by the engine
/// (it neither sends nor draws randomness) and messages to it are dropped.
#[test]
fn crashed_nodes_stop_participating() {
    // Node 0 is the flood source and crashes at round 0: the token never
    // enters the network.
    let plan = FaultPlan::new(0).crash(0, 0);
    let graph = topology::cycle(8).unwrap();
    let (_, metrics, _, tokens) = flood_run(&graph, 1, Some(&plan));
    assert_eq!(metrics.classical_messages, 0);
    assert_eq!(metrics.crashed_nodes, 1);
    assert_eq!(tokens.iter().filter(|&&t| t).count(), 1, "only the source");

    // Crash mid-flood on a path-like cycle: the wave passes around the
    // crashed node's side but the crashed node itself never observes it.
    let plan = FaultPlan::new(0).crash(4, 1);
    let (_, metrics, _, tokens) = flood_run(&graph, 1, Some(&plan));
    assert_eq!(metrics.crashed_nodes, 1);
    assert!(!tokens[4], "crashed node must not observe the token");
    assert_eq!(tokens.iter().filter(|&&t| !t).count(), 1);
}

/// Link-outage windows drop exactly the messages crossing the link during
/// the window, in both directions, on the direct network API.
#[test]
fn outage_window_semantics_on_direct_network() {
    let graph = topology::cycle(4).unwrap();
    let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(3));
    net.enable_trace();
    net.set_fault_plan(&FaultPlan::new(0).link_outage(0, 1, 1, 3));
    // Round 0: before the window — delivered.
    net.send(0, 1, 10).unwrap();
    net.advance_round();
    assert_eq!(net.inbox(1).len(), 1);
    // Rounds 1 and 2: inside the window — dropped, both directions.
    net.send(0, 1, 11).unwrap();
    net.send(1, 0, 12).unwrap();
    net.advance_round();
    assert!(net.inbox(1).is_empty() && net.inbox(0).is_empty());
    net.send(1, 0, 13).unwrap();
    net.advance_round();
    assert!(net.inbox(0).is_empty());
    // Round 3: after the window — delivered again.
    net.send(0, 1, 14).unwrap();
    net.advance_round();
    assert_eq!(net.inbox(1).len(), 1);
    let metrics = net.metrics();
    assert_eq!(metrics.classical_messages, 5, "drops still count as sent");
    assert_eq!(metrics.dropped_messages, 3);
    assert_eq!(net.trace().len(), 3);
    assert!(net.trace().iter().all(|e| matches!(
        e,
        TraceEvent::MessageDropped {
            cause: congest_net::DropCause::LinkOutage,
            ..
        }
    )));
}

/// Link-latency semantics on the direct network API: a message on a delayed
/// link arrives exactly `delay` rounds late, reordered behind later traffic
/// on fast links, and the delayed counter tallies it.
#[test]
fn latency_delays_and_reorders_on_direct_network() {
    let graph = topology::cycle(4).unwrap();
    let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(3));
    net.enable_trace();
    net.set_fault_plan(&FaultPlan::new(0).link_latency(0, 1, 2));
    // Round 0: a message on the slow link and one on a fast link.
    net.send(0, 1, 10).unwrap();
    net.send(2, 1, 20).unwrap();
    net.advance_round();
    // Only the fast message arrived; the slow one is parked.
    assert_eq!(net.inbox(1), &[(2, 1, 20)]);
    assert_eq!(net.metrics().delayed_messages, 1);
    let delivered: usize = (0..4).map(|v| net.inbox(v).len()).sum();
    assert_eq!(delivered, 1);
    // Round 1: a later fast message overtakes the parked one — reordering.
    net.send(2, 1, 21).unwrap();
    net.advance_round();
    assert_eq!(net.inbox(1), &[(2, 1, 21)]);
    // Round 2 barrier (fault clock 2 = send round 0 + delay 2): the slow
    // message matures, delivered before this round's fast traffic.
    net.send(2, 1, 22).unwrap();
    net.advance_round();
    assert_eq!(net.inbox(1), &[(0, 0, 10), (2, 1, 22)]);
    let metrics = net.metrics();
    assert_eq!(metrics.classical_messages, 4, "delays still count as sent");
    assert_eq!(metrics.delayed_messages, 1);
    assert_eq!(metrics.dropped_messages, 0);
    assert_eq!(
        net.trace(),
        &[TraceEvent::MessageDelayed {
            round: 0,
            from: 0,
            to: 1,
            delay: 2
        }]
    );
}

/// The exact order in which matured messages reach an inbox: by due clock
/// first, then in the order they were parked, whichever barrier parked
/// them and whether a latency fault or the scheduler held them. FloodFt
/// and GHS handle their inboxes in any order, so no golden pins this.
#[test]
fn matured_messages_arrive_by_due_then_parking_order() {
    // Star centre 0 receives; leaf 1's link has latency 4, leaf 3's has
    // latency 1, and leaf 2's fast link is skewed by the scheduler's 2.
    let mut net: Network<u64> =
        Network::new(topology::star(4).unwrap(), NetworkConfig::with_seed(3));
    net.set_fault_plan(
        &FaultPlan::new(0)
            .link_latency(0, 1, 4)
            .link_latency(0, 3, 1),
    );
    net.set_scheduler(&SchedulerSpec::worst_case(2));
    // Clock 0: parked first, due at clock 4.
    net.send(1, 0, 10).unwrap();
    net.advance_round();
    net.advance_round();
    // Clock 2: the scheduler parks 20 behind 10, also due at clock 4; 30
    // is parked last but due first, at clock 3.
    net.send(2, 0, 20).unwrap();
    net.send(3, 0, 30).unwrap();
    net.advance_round();
    assert!(net.inbox(0).is_empty());
    // The barrier of clock 3 never runs: clock 4's barrier drains both
    // dues at once.
    net.skip_rounds(1);
    net.advance_round();
    let arrivals: Vec<(usize, u64)> = net.inbox(0).iter().map(|&(from, _, m)| (from, m)).collect();
    assert_eq!(arrivals, [(3, 30), (1, 10), (2, 20)]);
    let metrics = net.metrics();
    assert_eq!(
        (metrics.delayed_messages, metrics.scheduled_messages),
        (2, 1)
    );
}

/// A delay too large for the due clock parks its message for good, whether
/// a latency fault or the scheduler chose it: sending after the first
/// barrier neither overflows the clock (a panic in debug builds) nor wraps
/// it into an early delivery (in release builds), and the message still
/// counts as delayed or scheduled.
#[test]
fn delays_past_the_clock_range_never_mature() {
    for (plan, spec) in [
        (Some(FaultPlan::new(0).link_latency(0, 1, u64::MAX)), None),
        (None, Some(SchedulerSpec::worst_case(u64::MAX))),
        (None, Some(SchedulerSpec::round_robin(u64::MAX, 5))),
    ] {
        let mut net: Network<u64> =
            Network::new(topology::cycle(4).unwrap(), NetworkConfig::with_seed(3));
        if let Some(plan) = &plan {
            net.set_fault_plan(plan);
        }
        if let Some(spec) = &spec {
            net.set_scheduler(spec);
        }
        for round in 0..3 {
            net.send(0, 1, round).unwrap();
            net.advance_round();
            assert!(net.inbox(1).is_empty(), "{plan:?} {spec:?}");
        }
        net.skip_rounds(1_000);
        net.advance_round();
        assert!(net.inbox(1).is_empty(), "{plan:?} {spec:?}");
        let metrics = net.metrics();
        let parked = if plan.is_some() {
            metrics.delayed_messages
        } else {
            metrics.scheduled_messages
        };
        assert_eq!(parked, 3, "{plan:?} {spec:?}");
    }
}

/// A latency-delayed message whose receiver crashes before the due round is
/// dropped at the due barrier, not silently delivered to a dead node.
#[test]
fn delayed_message_to_crashing_receiver_is_dropped_at_due_round() {
    let graph = topology::cycle(4).unwrap();
    let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(3));
    net.enable_trace();
    net.set_fault_plan(&FaultPlan::new(0).link_latency(0, 1, 3).crash(1, 2));
    net.send(0, 1, 10).unwrap();
    net.advance_round();
    for _ in 0..3 {
        net.advance_round();
    }
    assert!(net.inbox(1).is_empty());
    assert_eq!(net.metrics().delayed_messages, 1);
    assert_eq!(net.metrics().dropped_messages, 1);
    assert!(net.trace().iter().any(|e| matches!(
        e,
        TraceEvent::MessageDropped {
            cause: congest_net::DropCause::ReceiverCrashed,
            from: 0,
            to: 1,
            ..
        }
    )));
}

/// The golden latency + crash-recovery FloodFt configuration: pinned
/// end-to-end values (metrics, trace length, coverage) for a plan whose
/// delivery queue spans rounds.
#[test]
fn latency_recovery_flood_ft_golden() {
    let plan = FaultPlan::new(17)
        .drop_probability(0.03)
        .link_latency(0, 1, 3)
        .link_latency(5, 13, 2)
        .link_outage(2, 3, 1, 4)
        .crash_recover(6, 2, 9)
        .crash(20, 3);
    let graph = topology::hypercube(5).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(11), |v, d| {
        FloodFt::new(v == 0, d)
    });
    runtime.enable_trace();
    runtime.set_fault_plan(&plan);
    let rounds = runtime.run_until_halt(300).unwrap();
    assert!(runtime.all_halted());
    let metrics = runtime.metrics();
    let trace = runtime.take_trace();
    let covered = runtime.programs().iter().filter(|p| p.has_token()).count();
    // Every node is covered — including node 6, which was down for rounds
    // [2, 9) and re-requested the token after its reboot, and node 20,
    // which received the token (round 2, two hops from the source) just
    // before crash-stopping at round 3.
    assert_eq!(covered, 32);
    assert_eq!(metrics.crashed_nodes, 2);
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeRecovered { node: 6, round: 9 })));
    assert!(rounds > 9, "must outlive the recovery window");
    // Pinned golden: any engine/PRNG change that shifts these is a
    // deliberate behavioural change.
    assert_eq!(rounds, 14);
    assert_eq!(metrics.classical_messages, 508);
    assert_eq!(metrics.dropped_messages, 30);
    assert_eq!(metrics.delayed_messages, 38);
    assert_eq!(trace.len(), 71);
}

/// The golden Byzantine + adversarial FloodBft configuration: two lying
/// nodes (the source equivocating from round 0) plus a 2-strikes-per-round
/// frontier adversary on Q5. Pinned end-to-end values — metrics including
/// the mutated counter, the trace with mutation / equivocation /
/// adversarial-drop events, and coverage.
#[test]
fn byzantine_flood_bft_golden() {
    let plan = FaultPlan::new(19)
        .byzantine(0, 0, 6)
        .byzantine(5, 2, 8)
        .adversarial_drops(2);
    let graph = topology::hypercube(5).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(11), |v, d| {
        FloodBft::new(v == 0, d)
    });
    runtime.enable_trace();
    runtime.set_fault_plan(&plan);
    let rounds = runtime.run_until_halt(300).unwrap();
    let metrics = runtime.metrics();
    let trace = runtime.take_trace();
    let covered = runtime.programs().iter().filter(|p| p.has_token()).count();
    // Both windows are shorter than FloodBft's retransmission budget, so
    // coverage recovers in spite of the lies and the frontier strikes.
    assert_eq!(covered, 32);
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::MessageMutated { from: 0, .. })),
        "the source must be seen lying"
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::MessageEquivocated { node: 0, .. })),
        "the degree-5 source mutates per port — equivocation"
    );
    assert!(
        trace.iter().any(|e| matches!(
            e,
            TraceEvent::MessageDropped {
                cause: DropCause::Adversarial,
                ..
            }
        )),
        "the adversary must strike frontier links"
    );
    // Pinned golden: any engine/PRNG change that shifts these is a
    // deliberate behavioural change.
    assert_eq!(rounds, 13);
    assert_eq!(metrics.classical_messages, 527);
    assert_eq!(metrics.mutated_messages, 32);
    assert_eq!(metrics.dropped_messages, 14);
    assert_eq!(trace.len(), 53);
}

/// The golden FloodFt outage-reroute configuration: control flow — not just
/// counters — diverges from the fault-free run. With the source's clockwise
/// cycle link down for the whole flood, the token reaches node 1 the long
/// way around (n - 1 hops), the run takes diameter-scale rounds instead of
/// 3, and completion is still total.
#[test]
fn flood_ft_outage_reroute_golden() {
    let n = 12;
    let run = |plan: Option<&FaultPlan>| {
        let graph = topology::cycle(n).unwrap();
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(7), |v, d| {
            FloodFt::new(v == 0, d)
        });
        if let Some(plan) = plan {
            runtime.set_fault_plan(plan);
        }
        let rounds = runtime.run_until_halt(400).unwrap();
        assert!(runtime.all_halted());
        assert!(runtime.programs().iter().all(FloodFt::has_token));
        (rounds, runtime.metrics())
    };
    let (clean_rounds, clean_metrics) = run(None);
    // The link is down for rounds [0, 30) — long past the round-11 arrival
    // of the token at node 1 the long way around, so the reroute (not the
    // direct hop) is what covers it. Once the window lifts, the endpoints'
    // retransmissions get through, acks flow, and the run terminates.
    let plan = FaultPlan::new(0).link_outage(0, 1, 0, 30);
    let (outage_rounds, outage_metrics) = run(Some(&plan));
    // Pinned goldens: the fault-free flood finishes in eccentricity + ack
    // time; the outage run takes the long way around and keeps
    // retransmitting into the dead link until the window lifts.
    assert_eq!(clean_rounds, 9);
    assert_eq!(clean_metrics.classical_messages, 72);
    assert_eq!(clean_metrics.dropped_messages, 0);
    assert_eq!(outage_rounds, 33);
    assert_eq!(outage_metrics.classical_messages, 121);
    assert_eq!(outage_metrics.dropped_messages, 49);
    assert!(
        outage_rounds > clean_rounds
            && outage_metrics.classical_messages > clean_metrics.classical_messages,
        "the reroute must cost extra rounds and retransmissions"
    );
}

/// Crash-recovery semantics end to end on the runtime: during the window the
/// node is skipped and unreachable; at the recovery round `on_recover` runs
/// (with reset state for FloodFt) and the node rejoins the protocol.
#[test]
fn crash_recovery_runs_on_recover_and_rejoins() {
    let graph = topology::cycle(6).unwrap();
    let plan = FaultPlan::new(0).crash_recover(3, 1, 20);
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(2), |v, d| {
        FloodFt::new(v == 0, d)
    });
    runtime.enable_trace();
    runtime.set_fault_plan(&plan);
    let rounds = runtime.run_until_halt(200).unwrap();
    assert!(runtime.all_halted());
    assert!(
        runtime.programs().iter().all(FloodFt::has_token),
        "node 3 must be re-covered after its reboot"
    );
    assert!(rounds > 20, "the run must extend past the recovery round");
    let trace = runtime.take_trace();
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeCrashed { node: 3, round: 1 })));
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeRecovered { node: 3, round: 20 })));
}

/// GHS under link latency across a sweep of delays never aborts with a
/// network error: constant per-link latency preserves per-link FIFO with at
/// most one maturing message per barrier, so a node can never owe two
/// replies on one directed edge in one round (the reply loop additionally
/// dedups per sender as a belt-and-braces guard). A stale query maturing at
/// a later phase's reply barrier is the alignment this sweeps for.
#[test]
fn ghs_survives_every_latency_alignment() {
    let graph = topology::erdos_renyi_connected(24, 0.2, 3).unwrap();
    for a in 0..3usize {
        let w = graph.neighbor(a, 0);
        for delay in 1..40u64 {
            let opts = RunOptions {
                fault_plan: Some(FaultPlan::new(1).link_latency(a, w, delay)),
                trace: false,
                ..RunOptions::default()
            };
            let run = GhsLe::new().run_with(&graph, 5, &opts);
            assert!(run.is_ok(), "a={a} w={w} delay={delay}: {run:?}");
        }
    }
}

/// The seeded drop stream is deterministic per fault seed and independent of
/// the nodes' protocol randomness.
#[test]
fn random_drops_are_fault_seed_deterministic() {
    let run = |fault_seed: u64| {
        let graph = topology::hypercube(5).unwrap();
        let plan = FaultPlan::new(fault_seed).drop_probability(0.2);
        flood_run(&graph, 7, Some(&plan))
    };
    assert_eq!(run(1), run(1));
    let (_, a, _, _) = run(1);
    let (_, b, _, _) = run(2);
    assert!(a.dropped_messages > 0);
    assert_ne!(
        (a.dropped_messages, a.classical_messages),
        (b.dropped_messages, b.classical_messages),
        "different fault seeds should drop differently"
    );
}
