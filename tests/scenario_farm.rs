//! End-to-end tests of the batch farm: run-to-run byte-identity and replay
//! over random specs, and the all-failing-cells error contract.

use congest_net::topology::Family;
use congest_net::{ExecMode, FaultPlan, SchedulerSpec};
use proptest::prelude::*;
use sim_harness::{results_table, run_matrix, trace, ProtocolKind, ScenarioSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random specs: two runs produce byte-identical results tables and
    /// traces, and the second replays cleanly against the first's trace.
    #[test]
    fn random_specs_record_and_replay(
        size in 8usize..24,
        seed in 1u64..1000,
        proto in 0usize..3,
        event in 0u8..2,
        bound in 1u64..4,
        drop_permille in 0u64..80,
        crash_node in 0usize..8,
    ) {
        let protocol = [ProtocolKind::Flood, ProtocolKind::FloodFt, ProtocolKind::GhsLe][proto];
        let mut spec = ScenarioSpec::new("farm-prop", Family::Cycle, protocol)
            .sizes([size])
            .seeds([seed])
            .max_rounds(2000)
            .faults(
                FaultPlan::new(seed ^ 0x9e37)
                    .drop_probability(drop_permille as f64 / 1000.0)
                    .crash(crash_node, 3),
            );
        if event == 1 {
            spec = spec.mode(ExecMode::Event(SchedulerSpec::latency_skew(bound, seed)));
        }
        let specs = vec![spec];
        let recorded = run_matrix(&specs).unwrap();
        let replayed = run_matrix(&specs).unwrap();
        prop_assert_eq!(results_table(&replayed), results_table(&recorded));
        let recorded_trace = trace::serialize(&recorded);
        prop_assert_eq!(trace::serialize(&replayed), recorded_trace);
        let baseline = trace::parse(&recorded_trace).unwrap();
        prop_assert!(trace::compare(&replayed, &baseline).is_empty());
    }
}

#[test]
fn every_failing_cell_is_reported_not_just_the_first() {
    // Two spec bugs in one matrix: QuantumLe requires a complete graph, so
    // both cycle cells fail — and both must be named, in cell order.
    let specs = vec![
        ScenarioSpec::new("bad-a", Family::Cycle, ProtocolKind::QuantumLe).sizes([8]),
        ScenarioSpec::new("ok", Family::Cycle, ProtocolKind::Flood)
            .sizes([12])
            .max_rounds(200),
        ScenarioSpec::new("bad-b", Family::Cycle, ProtocolKind::QuantumQwLe).sizes([12]),
    ];
    let err = run_matrix(&specs).unwrap_err();
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 2, "one line per failing cell: {err}");
    assert!(lines[0].contains("bad-a protocol=quantum-le"), "{err}");
    assert!(lines[1].contains("bad-b protocol=quantum-qw-le"), "{err}");
}
