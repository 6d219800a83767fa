//! End-to-end tests of the scenario engine: the acceptance matrix (several
//! topologies × protocols × fault plans), replay byte-identity, and the
//! spec text format.

use congest_net::topology::Family;
use congest_net::FaultPlan;
use sim_harness::{run_matrix, trace, ProtocolKind, ScenarioSpec};

/// A compact version of the committed acceptance matrix: 4 topologies ×
/// 4 protocols, fault-free plus two distinct fault plans.
fn acceptance_specs() -> Vec<ScenarioSpec> {
    let drop_plan = FaultPlan::new(9).drop_probability(0.05);
    let chaos_plan = FaultPlan::new(11).link_outage(0, 1, 0, 4).crash(5, 2);
    vec![
        ScenarioSpec::new("flood-cycle", Family::Cycle, ProtocolKind::Flood)
            .sizes([48])
            .seeds([1, 2])
            .max_rounds(500),
        ScenarioSpec::new("flood-torus-drop", Family::Torus, ProtocolKind::Flood)
            .sizes([36])
            .seeds([1])
            .max_rounds(500)
            .faults(drop_plan.clone()),
        ScenarioSpec::new(
            "flood-expander-chaos",
            Family::RandomRegular { degree: 4 },
            ProtocolKind::Flood,
        )
        .sizes([32])
        .seeds([1])
        .max_rounds(500)
        .faults(chaos_plan.clone()),
        ScenarioSpec::new("ghs-torus", Family::Torus, ProtocolKind::GhsLe)
            .sizes([25])
            .seeds([1]),
        ScenarioSpec::new("ghs-cycle-drop", Family::Cycle, ProtocolKind::GhsLe)
            .sizes([32])
            .seeds([1])
            .faults(drop_plan),
        ScenarioSpec::new("quantum-le", Family::Complete, ProtocolKind::QuantumLe)
            .sizes([32])
            .seeds([1]),
        ScenarioSpec::new(
            "quantum-le-chaos",
            Family::Complete,
            ProtocolKind::QuantumLe,
        )
        .sizes([32])
        .seeds([1])
        .faults(chaos_plan),
        ScenarioSpec::new("cpr-d2-star", Family::Star, ProtocolKind::CprDiameterTwoLe)
            .sizes([48])
            .seeds([1]),
        // The extended fault model end to end: cross-round delivery (link
        // latency), an outage the fault-tolerant flood reroutes around, and
        // a crash-recovery window whose reboot re-requests the token.
        ScenarioSpec::new(
            "flood-ft-latency-recover",
            Family::Cycle,
            ProtocolKind::FloodFt,
        )
        .sizes([32])
        .seeds([1])
        .max_rounds(500)
        .faults(
            FaultPlan::new(13)
                .link_latency(2, 3, 3)
                .link_outage(0, 1, 0, 12)
                .crash_recover(16, 1, 20),
        ),
    ]
}

/// The acceptance criterion: the matrix runs end-to-end, and replay mode
/// reproduces byte-identical metrics and traces for every cell.
#[test]
fn acceptance_matrix_replays_byte_identically() {
    let recorded = run_matrix(&acceptance_specs()).unwrap();
    assert_eq!(recorded.len(), 10);
    let baseline_text = trace::serialize(&recorded);
    let baseline = trace::parse(&baseline_text).unwrap();

    let replayed = run_matrix(&acceptance_specs()).unwrap();
    let mismatches = trace::compare(&replayed, &baseline);
    assert!(
        mismatches.is_empty(),
        "replay diverged from the baseline:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(trace::serialize(&replayed), baseline_text);

    // The matrix genuinely exercised the fault plane.
    let total_dropped: u64 = recorded
        .iter()
        .map(|r| r.outcome.metrics.dropped_messages)
        .sum();
    let total_crashed: u64 = recorded
        .iter()
        .map(|r| r.outcome.metrics.crashed_nodes)
        .max()
        .unwrap();
    assert!(total_dropped > 0, "no drops recorded");
    assert!(total_crashed > 0, "no crashes recorded");
    assert!(recorded.iter().any(|r| !r.outcome.trace.is_empty()));
    // The extended model too: cross-round deliveries and a recovery.
    let total_delayed: u64 = recorded
        .iter()
        .map(|r| r.outcome.metrics.delayed_messages)
        .sum();
    assert!(total_delayed > 0, "no delays recorded");
    assert!(
        recorded.iter().any(|r| r
            .outcome
            .trace
            .iter()
            .any(|e| { matches!(e, congest_net::TraceEvent::NodeRecovered { .. }) })),
        "no recovery recorded"
    );
    // The fault-tolerant flood genuinely succeeds under the chaos plan.
    assert!(recorded
        .iter()
        .filter(|r| r.cell.scenario == "flood-ft-latency-recover")
        .all(|r| r.outcome.ok));
    // Fault-free cells stay pristine.
    assert!(recorded
        .iter()
        .filter(|r| r.cell.faults.is_empty())
        .all(|r| r.outcome.metrics.dropped_messages == 0 && r.outcome.trace.is_empty()));
}

/// The committed example specs under `examples/scenarios/` stay loadable
/// and expand to the advertised acceptance shape (≥ 3 topologies × ≥ 3
/// protocols × fault-free + ≥ 2 fault plans).
#[test]
fn committed_example_specs_cover_the_acceptance_shape() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let specs = sim_harness::load_specs(&dir).unwrap();
    let cells = sim_harness::expand(&specs);
    assert!(cells.len() >= 20, "committed matrix too small");

    let mut topologies: Vec<&str> = specs
        .iter()
        .map(|s| sim_harness::topology_name(s.topology))
        .collect();
    topologies.sort_unstable();
    topologies.dedup();
    assert!(topologies.len() >= 3, "topologies: {topologies:?}");

    let mut protocols: Vec<&str> = specs.iter().map(|s| s.protocol.name()).collect();
    protocols.sort_unstable();
    protocols.dedup();
    assert!(protocols.len() >= 3, "protocols: {protocols:?}");

    let mut fault_plans: Vec<&FaultPlan> = specs
        .iter()
        .map(|s| &s.faults)
        .filter(|f| !f.is_empty())
        .collect();
    assert!(
        specs.iter().any(|s| s.faults.is_empty()),
        "need fault-free cells"
    );
    fault_plans.dedup();
    assert!(fault_plans.len() >= 2, "need >= 2 distinct fault plans");
}

/// The committed specs run end-to-end and replay byte-identically (the
/// in-process version of the CI scenario-smoke job).
#[test]
fn committed_example_specs_run_and_replay() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let specs = sim_harness::load_specs(&dir).unwrap();
    let results = run_matrix(&specs).unwrap();
    let baseline = trace::parse(&trace::serialize(&results)).unwrap();
    let replayed = run_matrix(&specs).unwrap();
    assert!(trace::compare(&replayed, &baseline).is_empty());
    let table = sim_harness::results_table(&results);
    assert_eq!(table.lines().count(), results.len() + 1);
}

/// The scorecard's baseline column is exactly the standalone fault-free
/// run of each faulty scenario's twin — and the committed `flood_ft.scn`
/// file pins this externally: its fault-free `flood-ft-cycle` scenario has
/// the same shape as the `flood-ft-cycle-drop` twin, so the scorecard's
/// derived baseline must agree with the standalone fault-free golden cells
/// metric-for-metric.
#[test]
fn scorecard_baseline_matches_the_standalone_fault_free_run() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/flood_ft.scn");
    let specs = sim_harness::load_specs(&path).unwrap();
    let card = sim_harness::run_scorecard(&specs).unwrap();

    // Baseline column == run_matrix of the fault-free twins, byte-for-byte.
    let twins: Vec<ScenarioSpec> = specs
        .iter()
        .filter(|s| !s.faults.is_empty())
        .map(sim_harness::fault_free_twin)
        .collect();
    let standalone = run_matrix(&twins).unwrap();
    assert_eq!(card.baseline.len(), card.faulty.len());
    assert_eq!(
        trace::serialize(&card.baseline),
        trace::serialize(&standalone)
    );

    // The committed fault-free scenario is the visible twin of the drop
    // cells: same topology/protocol/sizes/seeds, so per-seed metrics match.
    let golden = run_matrix(
        &specs
            .iter()
            .filter(|s| s.name == "flood-ft-cycle")
            .cloned()
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let drop_twins: Vec<_> = card
        .baseline
        .iter()
        .filter(|r| r.cell.scenario == "flood-ft-cycle-drop")
        .collect();
    assert_eq!(drop_twins.len(), 2, "one twin per committed seed");
    for twin in drop_twins {
        let pinned = golden
            .iter()
            .find(|g| g.cell.seed == twin.cell.seed && g.cell.n == twin.cell.n)
            .expect("flood-ft-cycle covers every flood-ft-cycle-drop cell");
        assert_eq!(twin.outcome.metrics, pinned.outcome.metrics);
        assert_eq!(
            twin.outcome.effective_rounds,
            pinned.outcome.effective_rounds
        );
        assert_eq!(twin.outcome.ok, pinned.outcome.ok);
        assert_eq!(twin.outcome.metrics.dropped_messages, 0);
    }
}

/// Builder specs survive the text round-trip, so a builder-driven matrix
/// can be saved as `.scn` files and reloaded identically.
#[test]
fn builder_specs_round_trip_through_text() {
    for spec in acceptance_specs() {
        let parsed = ScenarioSpec::parse_many(&spec.to_text()).unwrap();
        assert_eq!(parsed, vec![spec]);
    }
}
