//! End-to-end pins for the telemetry sidecar's determinism boundary
//! (`docs/OBSERVABILITY.md`):
//!
//! 1. **Observation changes nothing:** metrics, per-round history, traces,
//!    and verdicts are byte-identical with telemetry on vs off, round-mode
//!    and event-mode.
//! 2. **The deterministic half is reproducible:** the report's
//!    `deterministic` projection (rounds, messages, histograms) is
//!    byte-identical run to run, while wall readings stay segregated in the
//!    `wall` half.
//! 3. **Wall time is outside replay:** serialized trace baselines and
//!    `trace::compare` ignore `CellResult::wall_nanos` and the telemetry
//!    sidecar entirely, so profiled runs replay cleanly against unprofiled
//!    baselines.
//! 4. **Event-mode coverage:** a run under a scheduler adversary populates
//!    the event-queue depth (`heap_depth`) and scheduler-skew histograms.

use congest_net::topology::{self, Family};
use congest_net::{
    ExecMode, FaultPlan, NetworkConfig, SchedulerSpec, SyncRuntime, TelemetryReport,
};
use sim_harness::{expand, run_cell_with, trace, CellResult, ProtocolKind, ScenarioSpec};

/// The one-cell matrix used throughout: fault-tolerant flooding on a cycle
/// under a drop-and-crash plan, so all of the fault judge, the trace sink,
/// and retransmission control flow are live.
fn cells(mode: ExecMode) -> Vec<sim_harness::Cell> {
    let spec = ScenarioSpec::new("telemetry-probe", Family::Cycle, ProtocolKind::FloodFt)
        .sizes([48])
        .seeds([3])
        .max_rounds(10_000)
        .faults(FaultPlan::new(11).drop_probability(0.05).crash(7, 4))
        .mode(mode);
    expand(&[spec])
}

fn run(mode: ExecMode, telemetry: bool) -> CellResult {
    let matrix = cells(mode);
    run_cell_with(&matrix[0], telemetry).unwrap()
}

/// Everything the determinism domain contains, projected out of a result so
/// the (intentionally differing) telemetry and wall fields don't participate
/// in the comparison.
fn deterministic_view(r: &CellResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.outcome.metrics,
        r.outcome.effective_rounds,
        r.outcome.ok,
        r.outcome.detail.clone(),
        r.outcome.trace.clone(),
    )
}

#[test]
fn telemetry_does_not_perturb_the_determinism_domain() {
    for mode in [
        ExecMode::Round,
        ExecMode::Event(SchedulerSpec::latency_skew(3, 7)),
    ] {
        let off = run(mode, false);
        let on = run(mode, true);
        assert!(off.outcome.telemetry.is_none());
        assert!(off.wall_nanos == 0, "unprofiled runs are not wall-timed");
        assert!(on.outcome.telemetry.is_some());
        assert_eq!(
            deterministic_view(&off),
            deterministic_view(&on),
            "telemetry must be invisible to metrics/trace (mode {mode:?})"
        );
    }
}

/// The on-vs-off invariance holds for per-round *history* too (a richer
/// stream than the aggregate metrics), checked at the engine layer where
/// history tracking is reachable.
#[test]
fn round_history_is_identical_with_telemetry_on_and_off() {
    use congest_net::programs::Flood;
    let history = |telemetry: bool| {
        let graph = topology::random_regular(48, 4, 5).unwrap();
        let config = NetworkConfig::with_seed(5).track_history(true);
        let mut runtime = SyncRuntime::new(graph, config, |v, _| Flood::new(v == 0));
        if telemetry {
            runtime.enable_telemetry();
        }
        runtime.run_until_halt(1000).unwrap();
        (
            runtime.metrics(),
            runtime.network().round_history().to_vec(),
        )
    };
    assert_eq!(
        history(false),
        history(true),
        "history must not see the sidecar"
    );
}

#[test]
fn deterministic_telemetry_is_reproducible() {
    for mode in [
        ExecMode::Round,
        ExecMode::Event(SchedulerSpec::worst_case(2)),
    ] {
        let report = || -> TelemetryReport { run(mode, true).outcome.telemetry.unwrap() };
        let (first, second) = (report(), report());
        assert_eq!(
            first.deterministic, second.deterministic,
            "deterministic half must not change run to run (mode {mode:?})"
        );
        assert_eq!(
            first.deterministic_jsonl("cell"),
            second.deterministic_jsonl("cell"),
            "the CI-diffed projection must be byte-identical"
        );
        // Wall readings live in the segregated half only: the full JSONL
        // line legitimately differs across runs, but stripping the wall
        // object must leave the byte-identical prefix.
        let strip = |line: String| line.split(",\"wall\":").next().unwrap().to_string();
        let first_line = strip(first.to_jsonl("cell"));
        assert_eq!(first_line, strip(second.to_jsonl("cell")));
        assert!(!first_line.contains("nanos"));
    }
}

#[test]
fn wall_time_is_excluded_from_baselines_and_replay() {
    let profiled = run(ExecMode::Round, true);
    let plain = run(ExecMode::Round, false);
    assert_ne!(profiled.wall_nanos, 0);
    // Same serialized baseline whether or not the run was profiled...
    assert_eq!(
        trace::serialize(std::slice::from_ref(&profiled)),
        trace::serialize(std::slice::from_ref(&plain))
    );
    // ...and replay comparison is clean in both directions.
    let baseline = trace::parse(&trace::serialize(&[plain])).unwrap();
    assert!(trace::compare(std::slice::from_ref(&profiled), &baseline).is_empty());
    // Even a wildly different wall reading is invisible to replay.
    let mut slow = profiled;
    slow.wall_nanos = u64::MAX;
    assert!(trace::compare(&[slow], &baseline).is_empty());
}

#[test]
fn event_mode_populates_heap_and_skew_histograms() {
    let report = run(ExecMode::Event(SchedulerSpec::latency_skew(3, 7)), true)
        .outcome
        .telemetry
        .unwrap();
    let det = &report.deterministic;
    assert!(det.rounds > 0);
    assert_eq!(det.messages_per_round.total(), det.rounds);
    assert_eq!(
        det.heap_depth.total(),
        det.rounds,
        "sampled at every barrier"
    );
    assert_eq!(det.skew_per_round.total(), det.rounds);
    // A skewing scheduler genuinely parks messages: some barrier must have
    // seen a non-empty event queue (a bucket beyond the zero bucket).
    assert!(
        det.heap_depth.counts().len() > 1,
        "heap depth stuck at zero: {:?}",
        det.heap_depth
    );
    assert!(
        det.inbox_sizes.total() > 0,
        "inbox sampling must have seen deliveries"
    );
    // Round-mode runs sample the same histograms but never see skew.
    let round = run(ExecMode::Round, true).outcome.telemetry.unwrap();
    assert!(round.deterministic.skew_per_round.is_empty());
}
