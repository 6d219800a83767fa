//! End-to-end tests for event mode: the round loop under a scheduler
//! adversary installed on its network.
//!
//! Three layers, mirroring `determinism.rs`:
//!
//! 1. **The equivalence theorem (property-based):** event mode under the
//!    synchronous scheduler reproduces round mode byte-for-byte — metrics,
//!    effective rounds, coverage verdict, and trace — on random graphs, at
//!    shard requests 1 and 4, with and without a fault plan (see
//!    `docs/EXECUTION_MODELS.md` for the theorem and its proof sketch).
//! 2. **Golden values:** the exact counters for `flood-ft` under the
//!    `latency-skew` scheduler are pinned. Any change to the scheduler
//!    stream, the delivery order, or the round loop that shifts them is a
//!    behavioural change and must be made deliberately (update the
//!    constants in the same commit and say why).
//! 3. **Replay determinism:** identical `(spec, seed, scheduler)` inputs
//!    produce byte-identical serialized v4 traces across repeated runs and
//!    across shard requests, for every scheduler kind.

use congest_net::topology::Family;
use congest_net::{ExecMode, FaultPlan, SchedulerSpec};
use proptest::prelude::*;
use qle::RunOptions;
use sim_harness::{expand, run_cells, trace, ProtocolKind, ScenarioSpec};

/// Runs one flood-family cell through the scenario registry (trace on).
fn run_cell(
    protocol: ProtocolKind,
    n: usize,
    seed: u64,
    shards: usize,
    mode: ExecMode,
    faults: Option<FaultPlan>,
) -> sim_harness::CellOutcome {
    let graph = Family::Cycle.generate(n, seed).unwrap();
    let opts = RunOptions {
        shards,
        fault_plan: faults,
        trace: true,
        mode,
        ..RunOptions::default()
    };
    protocol.run(&graph, seed, &opts, 10_000).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The synchronous scheduler reproduces round mode exactly:
    /// metrics, history (trace), rounds, and verdict, at shard requests
    /// 1 and 4, fault-free and under a seeded drop plan.
    #[test]
    fn sync_scheduler_equals_round_engine(
        n in 8usize..40,
        seed in 0u64..200,
        drop_faults in 0u8..2,
    ) {
        let faults =
            (drop_faults == 1).then(|| FaultPlan::new(seed ^ 0xFA17).drop_probability(0.05));
        for protocol in [ProtocolKind::Flood, ProtocolKind::FloodFt] {
            for shards in [1usize, 4] {
                let round = run_cell(
                    protocol, n, seed, shards, ExecMode::Round, faults.clone(),
                );
                let event = run_cell(
                    protocol,
                    n,
                    seed,
                    shards,
                    ExecMode::Event(SchedulerSpec::synchronous()),
                    faults.clone(),
                );
                prop_assert_eq!(&event, &round, "{:?} shards={}", protocol, shards);
                prop_assert_eq!(event.metrics.scheduled_messages, 0);
            }
        }
    }

    /// Every scheduler kind replays byte-identically, and the shard count
    /// never changes an event-mode outcome (the deterministic barrier merge
    /// fixes the delivery order the scheduler sees).
    #[test]
    fn event_mode_replays_identically_across_shard_counts(
        n in 8usize..32,
        seed in 0u64..100,
    ) {
        for sched in [
            SchedulerSpec::round_robin(2, seed),
            SchedulerSpec::latency_skew(3, seed),
            SchedulerSpec::worst_case(2),
        ] {
            let mode = ExecMode::Event(sched);
            let a = run_cell(ProtocolKind::Flood, n, seed, 1, mode, None);
            let b = run_cell(ProtocolKind::Flood, n, seed, 1, mode, None);
            prop_assert_eq!(&a, &b, "{:?}", sched);
            let sharded = run_cell(ProtocolKind::Flood, n, seed, 4, mode, None);
            prop_assert_eq!(&a, &sharded, "{:?}", sched);
        }
    }
}

/// The event-mode scenario matrix from `examples/scenarios/event_mode.scn`'s
/// skew cell, rebuilt in code so the golden is self-contained.
fn skew_spec() -> ScenarioSpec {
    ScenarioSpec::new("flood-ft-event-skew", Family::Cycle, ProtocolKind::FloodFt)
        .sizes([48])
        .seeds([1])
        .max_rounds(500)
        .faults(FaultPlan::new(9).drop_probability(0.05))
        .mode(ExecMode::Event(SchedulerSpec::latency_skew(3, 7)))
}

/// Golden counters for `flood-ft` under the `latency-skew` scheduler
/// (captured when event mode landed; see the module docs for the update
/// policy).
#[test]
fn latency_skew_flood_ft_golden() {
    for shards in [1usize, 4] {
        let mut spec = skew_spec();
        spec.shards = shards;
        let results = run_cells(&expand(&[spec])).unwrap();
        assert_eq!(results.len(), 1);
        let m = &results[0].outcome.metrics;
        assert_eq!(
            (
                m.classical_messages,
                m.rounds,
                m.peak_messages_per_round,
                m.total_bits,
                m.dropped_messages,
                m.scheduled_messages,
            ),
            (645, 59, 16, 1935, 33, 467),
            "shards = {shards}"
        );
        assert_eq!(results[0].outcome.effective_rounds, 59);
        assert!(results[0].outcome.ok);
        assert_eq!(
            results[0].cell.id(),
            "flood-ft-event-skew protocol=flood-ft topology=cycle n=48 seed=1 \
             mode=event scheduler=latency-skew,3,7"
        );
    }
}

/// A mixed round/event matrix serializes to a v4 trace that parses back and
/// replays byte-identically — the determinism pin CI's scenario-smoke job
/// re-checks across real processes on the committed matrix.
#[test]
fn mixed_matrix_trace_round_trips_and_replays() {
    let specs = vec![
        ScenarioSpec::new("flood-round", Family::Cycle, ProtocolKind::Flood)
            .sizes([24])
            .seeds([1]),
        ScenarioSpec::new("flood-event", Family::Cycle, ProtocolKind::Flood)
            .sizes([24])
            .seeds([1])
            .mode(ExecMode::Event(SchedulerSpec::worst_case(2))),
    ];
    let results = run_cells(&expand(&specs)).unwrap();
    let text = trace::serialize(&results);
    assert!(text.starts_with("# sim-harness trace v4\n"), "{text}");
    assert!(text.contains("sched="), "{text}");
    assert!(
        text.contains("mode=event scheduler=worst-case,2,0"),
        "{text}"
    );
    let baseline = trace::parse(&text).unwrap();
    assert!(trace::compare(&results, &baseline).is_empty());
    // A second run replays byte-identically against the first.
    let again = run_cells(&expand(&specs)).unwrap();
    assert_eq!(trace::serialize(&again), text);
    // The event cell genuinely ran under its scheduler: skew was recorded,
    // and the worst-case bound stretched completion past the round cell.
    assert!(again[1].outcome.metrics.scheduled_messages > 0);
    assert!(again[1].outcome.effective_rounds > again[0].outcome.effective_rounds);
}
