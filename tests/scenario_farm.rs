//! End-to-end tests of the batch farm and its content-addressed cell
//! cache: cold/warm byte-identity with a 100% warm hit rate, cache-key
//! sensitivity to every spec stanza, on-disk corruption handled as
//! diagnosed misses, and the all-failing-cells error contract.

use congest_net::topology::Family;
use congest_net::{ExecMode, FaultPlan, SchedulerSpec};
use proptest::prelude::*;
use sim_harness::{
    cache_key, expand, results_table, run_cells_collect, trace, CellCache, FarmOptions, FarmReport,
    ProtocolKind, ScenarioSpec,
};
use std::path::{Path, PathBuf};

/// A fresh cache directory under the test-owned tmp root.
fn cache_dir(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("scenario-farm")
        .join(label);
    // Start clean: earlier runs of the same test must not pre-warm us.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the specs through the cached farm and renders the same bytes the
/// CLI's streaming sink writes (header + cell-ordered rows / trace blocks).
fn farm_run(specs: &[ScenarioSpec], dir: &Path) -> (String, String, FarmReport) {
    let cells = expand(specs);
    let opts = FarmOptions {
        telemetry: false,
        cache_dir: Some(dir.to_path_buf()),
    };
    let (results, report) = run_cells_collect(&cells, &opts).unwrap();
    (results_table(&results), trace::serialize(&results), report)
}

fn base_spec() -> ScenarioSpec {
    ScenarioSpec::new("farm-base", Family::Cycle, ProtocolKind::Flood)
        .sizes([16, 24])
        .seeds([1, 2])
        .max_rounds(500)
        .faults(FaultPlan::new(5).drop_probability(0.02).crash(3, 4))
}

#[test]
fn cold_then_warm_is_byte_identical_with_full_hit_rate() {
    let dir = cache_dir("cold-warm");
    let specs = vec![
        base_spec(),
        ScenarioSpec::new("farm-event", Family::Torus, ProtocolKind::Flood)
            .sizes([16])
            .seeds([3])
            .max_rounds(500)
            .mode(ExecMode::Event(SchedulerSpec::latency_skew(3, 7))),
        ScenarioSpec::new("farm-ghs", Family::Torus, ProtocolKind::GhsLe).sizes([16]),
    ];
    let (cold_results, cold_traces, cold_report) = farm_run(&specs, &dir);
    assert_eq!(cold_report.hits, 0);
    assert_eq!(cold_report.misses, cold_report.cells);
    assert_eq!(cold_report.stores, cold_report.cells);
    let (warm_results, warm_traces, warm_report) = farm_run(&specs, &dir);
    assert_eq!(warm_results, cold_results);
    assert_eq!(warm_traces, cold_traces);
    assert_eq!(warm_report.hits, warm_report.cells, "{warm_report:?}");
    assert_eq!(warm_report.misses, 0);
    assert_eq!(warm_report.stores, 0);
    assert!(
        warm_report.rejected.is_empty(),
        "{:?}",
        warm_report.rejected
    );
    assert!((warm_report.hit_rate() - 100.0).abs() < f64::EPSILON);
    assert!(warm_report.stats_text().contains("hit rate = 100.0%"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random specs: a cold then a warm run produce byte-identical
    /// results/traces and the warm run is 100% hits.
    #[test]
    fn random_specs_cold_then_warm_round_trip(
        size in 8usize..24,
        seed in 1u64..1000,
        proto in 0usize..3,
        event in 0u8..2,
        bound in 1u64..4,
        drop_permille in 0u64..80,
        crash_node in 0usize..8,
    ) {
        let dir = cache_dir(&format!("prop-{size}-{seed}-{proto}-{event}-{bound}"));
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
        let (cold_results, cold_traces, cold_report) = farm_run(&specs, &dir);
        prop_assert_eq!(cold_report.hits, 0);
        let (warm_results, warm_traces, warm_report) = farm_run(&specs, &dir);
        prop_assert_eq!(warm_report.hits, warm_report.cells);
        prop_assert_eq!(warm_results, cold_results);
        prop_assert_eq!(warm_traces, cold_traces);
    }
}

#[test]
fn flipping_any_stanza_changes_the_cache_key() {
    let base = expand(&[base_spec()]).remove(0);
    let key = |cell: &sim_harness::Cell| cache_key(cell);
    let base_key = key(&base);
    // Seed.
    let mut flip = base.clone();
    flip.seed += 1;
    assert_ne!(key(&flip), base_key, "seed must enter the key");
    // Size.
    let mut flip = base.clone();
    flip.n += 4;
    assert_ne!(key(&flip), base_key, "size must enter the key");
    // Protocol.
    let mut flip = base.clone();
    flip.protocol = ProtocolKind::FloodFt;
    assert_ne!(key(&flip), base_key, "protocol must enter the key");
    // Topology.
    let mut flip = base.clone();
    flip.topology = Family::Torus;
    assert_ne!(key(&flip), base_key, "topology must enter the key");
    // Round budget.
    let mut flip = base.clone();
    flip.max_rounds += 1;
    assert_ne!(key(&flip), base_key, "max_rounds must enter the key");
    // Mode: a round cell and its event-mode twin must never collide, even
    // under the synchronous scheduler that reproduces round semantics.
    let mut event = base.clone();
    event.mode = ExecMode::Event(SchedulerSpec::synchronous());
    assert_ne!(
        key(&event),
        base_key,
        "round and event cells must not collide"
    );
    // Scheduler bound.
    let mut skew = base.clone();
    skew.mode = ExecMode::Event(SchedulerSpec::latency_skew(2, 7));
    let mut skew_more = base.clone();
    skew_more.mode = ExecMode::Event(SchedulerSpec::latency_skew(3, 7));
    assert_ne!(
        key(&skew),
        key(&skew_more),
        "scheduler bound must enter the key"
    );
    // One fault entry.
    let mut fault = base.clone();
    fault.faults = FaultPlan::new(5).drop_probability(0.02).crash(3, 5);
    assert_ne!(key(&fault), base_key, "fault entries must enter the key");
    // Fault seed.
    let mut fault_seed = base.clone();
    fault_seed.faults = FaultPlan::new(6).drop_probability(0.02).crash(3, 4);
    assert_ne!(key(&fault_seed), base_key, "fault seed must enter the key");
    // Not hashed: the scenario name.
    let mut renamed = base.clone();
    renamed.scenario = "renamed".into();
    assert_eq!(key(&renamed), base_key, "the name must not enter the key");
}

#[test]
fn corrupt_truncated_and_version_bumped_entries_are_diagnosed_misses() {
    let dir = cache_dir("corruption");
    let specs = vec![
        ScenarioSpec::new("farm-sabotage", Family::Cycle, ProtocolKind::Flood)
            .sizes([16])
            .seeds([9])
            .max_rounds(500),
    ];
    let (cold_results, cold_traces, _) = farm_run(&specs, &dir);
    let cell = expand(&specs).remove(0);
    let cache = CellCache::open(&dir).unwrap();
    let entry = cache.entry_path(&cell);
    let pristine = std::fs::read_to_string(&entry).unwrap();

    // Sabotage, expected diagnostic fragment, label.
    let sabotages: [(String, &str); 4] = [
        (
            pristine.replace("# sim-harness cache v1", "# sim-harness cache v9"),
            "unsupported cache format v9",
        ),
        (
            pristine.strip_suffix("end\n").unwrap().to_string(),
            "truncated entry",
        ),
        ("????\n".to_string(), "missing cache version line"),
        (
            pristine.replace("summary ", "summmary "),
            "unrecognised line",
        ),
    ];
    for (bytes, needle) in sabotages {
        std::fs::write(&entry, &bytes).unwrap();
        // Direct lookup: a diagnosed rejection naming the file and reason —
        // never a panic, never a silently-served entry.
        let err = cache.lookup(&cell).unwrap_err();
        assert!(err.contains(needle), "wanted {needle:?} in: {err}");
        assert!(
            err.contains(entry.file_name().unwrap().to_str().unwrap()),
            "diagnostic must name the entry file: {err}"
        );
        // Farm-level: the cell re-executes (a miss), the rejection is
        // reported, and the rerun repairs the entry in place.
        let (results, traces, report) = farm_run(&specs, &dir);
        assert_eq!(report.hits, 0, "{report:?}");
        assert_eq!(report.misses, 1);
        assert_eq!(report.rejected.len(), 1, "{:?}", report.rejected);
        assert!(report.rejected[0].contains(needle), "{:?}", report.rejected);
        assert_eq!(results, cold_results);
        assert_eq!(traces, cold_traces);
        assert_eq!(std::fs::read_to_string(&entry).unwrap(), pristine);
    }

    // The version-bump diagnostic follows the trace-v4 convention: it names
    // both the foreign version and the one this build reads.
    std::fs::write(
        &entry,
        pristine.replace("# sim-harness cache v1", "# sim-harness cache v9"),
    )
    .unwrap();
    let err = cache.lookup(&cell).unwrap_err();
    assert!(err.contains("this build reads v1"), "{err}");
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
    let err = sim_harness::run_matrix(&specs).unwrap_err();
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 2, "one line per failing cell: {err}");
    assert!(lines[0].contains("bad-a protocol=quantum-le"), "{err}");
    assert!(lines[1].contains("bad-b protocol=quantum-qw-le"), "{err}");
}

#[test]
fn telemetry_runs_bypass_the_cache() {
    let dir = cache_dir("telemetry-bypass");
    let specs = vec![base_spec()];
    let (_, _, cold) = farm_run(&specs, &dir);
    assert_eq!(cold.stores, cold.cells);
    // A telemetry (profiling) run must neither hit nor store: cached
    // entries carry no sidecar and no wall clocks.
    let cells = expand(&specs);
    let opts = FarmOptions {
        telemetry: true,
        cache_dir: Some(dir.clone()),
    };
    let (results, report) = run_cells_collect(&cells, &opts).unwrap();
    assert_eq!(report.hits, 0, "{report:?}");
    assert_eq!(report.stores, 0);
    assert!(results.iter().all(|r| r.outcome.telemetry.is_some()));
}
