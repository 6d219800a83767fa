//! The workspace's experiment binary: prints the experiment tables (E1–E10),
//! runs the performance benchmarks on request, and drives the scenario
//! engine (declarative workloads, fault injection, deterministic replay).
//!
//! Usage (see also `--help`):
//!
//! ```text
//! cargo run --release -p bench-harness --bin experiments                  # all experiments
//! cargo run --release -p bench-harness --bin experiments -- e1 e7         # a selection
//! cargo run --release -p bench-harness --bin experiments -- --bench-network
//!     # round-engine microbenchmark (CSR vs legacy); writes BENCH_network.json
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios
//!     # run a scenario matrix; streams results.txt + traces.txt (+ cache-stats.txt) to --out
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios \
//!     --cache-dir farm-cache
//!     # same, through the content-addressed cell cache: a warm rerun re-executes nothing
//! cargo run --release -p bench-harness --bin experiments -- --serve --cache-dir farm-cache
//!     # long-running farm: scenario requests line-by-line on stdin, framed results on stdout
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios \
//!     --replay scenario-out
//!     # re-run the matrix and assert byte-identical metrics + traces
//! cargo run --release -p bench-harness --bin experiments -- --scorecard examples/scenarios
//!     # resilience scorecard: every faulty scenario vs its fault-free twin,
//!     # aggregated per protocol × fault class; writes scorecard.txt to --out
//! cargo run --release -p bench-harness --bin experiments -- --profile examples/scenarios
//!     # run the matrix with the telemetry sidecar on: per-cell wall times,
//!     # phase breakdown, shard utilization, round histograms; writes
//!     # telemetry.jsonl (+ the usual results/traces) to --out
//! ```

use bench_harness::gate;
use bench_harness::network_bench;
use bench_harness::{
    e10_candidate_sampling, e1_complete_le, e2_tradeoff, e3_mixing_le, e4_diameter_two_le,
    e5_general_le, e6_agreement, e7_star_search, e8_star_counting, e9_walk_ablation,
    ExperimentTable,
};

/// Aggregate flood speedup of the sequential CSR engine over the frozen
/// legacy engine (total legacy time over total csr time, all topologies).
fn flood_aggregate(records: &[network_bench::BenchRecord]) -> Option<f64> {
    let total = |engine: &str| -> u128 {
        records
            .iter()
            .filter(|r| r.workload == "flood" && r.engine == engine)
            .map(|r| r.ns_per_run)
            .sum()
    };
    let (csr, legacy) = (total("csr"), total("legacy"));
    (csr > 0).then(|| legacy as f64 / csr as f64)
}

/// Runs the flood/GHS round-engine benchmark and writes `BENCH_network.json`
/// next to the working directory, printing a human-readable summary.
///
/// If `BENCH_NETWORK_MIN_SPEEDUP` is set (e.g. to `3.0` in CI), the process
/// exits non-zero when the aggregate flood speedup of the sequential CSR
/// engine over the frozen legacy engine falls below that threshold, so the
/// round-engine headline is guarded, not just recorded. A below-threshold
/// reading is re-measured (up to three attempts, best kept): scheduler and
/// cache interference on a shared host only ever *inflate* run times, so a
/// single noisy attempt must not fail the gate, while a true regression
/// fails every attempt.
fn run_network_bench() {
    let n = 4096;
    // 9 timed runs per record: with the min-of-runs estimator, more samples
    // tighten the minimum and keep the CI speedup gate stable on noisy
    // (shared/timesliced) hosts.
    let runs = 9;
    let workers = rayon::current_num_threads();
    println!(
        "network_core round-engine benchmark (n = {n}, {runs} timed runs each, \
         {workers} pool worker(s), sharded engine uses {} shards)\n",
        network_bench::bench_shards()
    );
    let threshold = gate::speedup_threshold("BENCH_NETWORK_MIN_SPEEDUP");
    let (mut records, aggregate) = gate::measure_best_of(threshold, || {
        let records = network_bench::measure_all(n, runs);
        let aggregate = flood_aggregate(&records).unwrap_or(0.0);
        (records, aggregate)
    });
    // The large-n tier (implicit structured topologies at 2^20 nodes) runs
    // once, outside the gate's re-measure loop — it feeds no speedup ratio,
    // only absolute throughput records. Skippable for quick local iterations
    // with BENCH_LARGE_N=0; CI always runs it.
    let large_n = std::env::var("BENCH_LARGE_N").map_or(true, |v| v != "0");
    if large_n {
        println!(
            "\nlarge-n tier (n = {}, implicit backends, 2 timed runs each)...",
            network_bench::LARGE_N
        );
        records.extend(network_bench::measure_large(2));
    }
    println!(
        "{:<10} {:<8} {:<16} {:>10} {:>12} {:>14} {:>14}",
        "workload", "engine", "topology", "rounds", "messages", "ns/run", "ns/round"
    );
    for r in &records {
        println!(
            "{:<10} {:<8} {:<16} {:>10} {:>12} {:>14} {:>14}",
            r.workload,
            r.engine,
            r.topology,
            r.rounds,
            r.messages,
            r.ns_per_run,
            r.ns_per_round()
        );
    }
    // Headline: flood speedup per topology, CSR vs legacy.
    println!();
    let labels: Vec<&str> = {
        let mut seen = Vec::new();
        for r in &records {
            if !seen.contains(&r.topology.as_str()) {
                seen.push(r.topology.as_str());
            }
        }
        seen
    };
    let sharded = format!("csr-mt{}", network_bench::bench_shards());
    for label in labels {
        let of = |engine: &str| {
            records
                .iter()
                .find(|r| r.workload == "flood" && r.engine == engine && r.topology == label)
                .map(|r| r.ns_per_run)
        };
        if let (Some(csr), Some(legacy)) = (of("csr"), of("legacy")) {
            println!(
                "flood {label}: {:.2}x speedup (csr vs legacy)",
                legacy as f64 / csr as f64
            );
        }
        if let (Some(csr), Some(mt)) = (of("csr"), of(&sharded)) {
            println!(
                "flood {label}: {:.2}x speedup ({sharded} vs csr)",
                csr as f64 / mt as f64
            );
        }
    }
    let total = |engine: &str| -> u128 {
        records
            .iter()
            .filter(|r| r.workload == "flood" && r.engine == engine)
            .map(|r| r.ns_per_run)
            .sum()
    };
    let (csr_total, sharded_total) = (total("csr"), total(&sharded));
    if csr_total > 0 {
        println!("flood aggregate (all topologies): {aggregate:.2}x speedup (csr vs legacy)");
    }
    if sharded_total > 0 {
        println!(
            "flood aggregate (all topologies): {:.2}x speedup ({sharded} vs csr; needs >= {} cores to scale)",
            csr_total as f64 / sharded_total as f64,
            network_bench::bench_shards()
        );
    }
    let json = network_bench::to_json(&records);
    std::fs::write("BENCH_network.json", &json).expect("write BENCH_network.json");
    println!("\nwrote BENCH_network.json");
    if let Some(threshold) = threshold {
        assert!(
            aggregate >= threshold,
            "aggregate flood speedup regressed: {aggregate:.2}x < required {threshold:.2}x (csr vs legacy)"
        );
        println!("aggregate speedup {aggregate:.2}x meets the required {threshold:.2}x threshold");
    }
}

/// Resolves the cell-cache directory: the `--cache-dir` flag if given,
/// otherwise the `CONGEST_CACHE` environment knob (empty/unset = no cache).
fn resolve_cache_dir(flag: Option<String>) -> Option<std::path::PathBuf> {
    flag.or_else(|| {
        std::env::var("CONGEST_CACHE")
            .ok()
            .filter(|v| !v.is_empty())
    })
    .map(std::path::PathBuf::from)
}

/// A [`sim_harness::FarmSink`] that streams each completed cell's results
/// row and trace block straight to the output files (and the row to
/// stdout), so a thousand-spec sweep never buffers the whole run — the
/// files come out byte-identical to the old buffered writer.
struct StreamSink {
    results: std::io::BufWriter<std::fs::File>,
    traces: std::io::BufWriter<std::fs::File>,
}

impl StreamSink {
    fn open(out: &std::path::Path) -> Result<Self, String> {
        let file = |name: &str| {
            std::fs::File::create(out.join(name))
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("write {name}: {e}"))
        };
        Ok(StreamSink {
            results: file("results.txt")?,
            traces: file("traces.txt")?,
        })
    }

    fn finish(self) -> Result<(), String> {
        use std::io::Write;
        let flush = |mut w: std::io::BufWriter<std::fs::File>, name: &str| {
            w.flush().map_err(|e| format!("write {name}: {e}"))
        };
        flush(self.results, "results.txt")?;
        flush(self.traces, "traces.txt")
    }
}

impl sim_harness::FarmSink for StreamSink {
    fn on_start(&mut self, _total: usize) -> Result<(), String> {
        use std::io::Write;
        let header = sim_harness::results_table_header();
        print!("{header}");
        self.results
            .write_all(header.as_bytes())
            .map_err(|e| format!("write results.txt: {e}"))?;
        self.traces
            .write_all(sim_harness::trace::HEADER.as_bytes())
            .map_err(|e| format!("write traces.txt: {e}"))
    }

    fn on_cell(
        &mut self,
        _index: usize,
        result: sim_harness::CellResult,
        _from_cache: bool,
    ) -> Result<(), String> {
        use std::io::Write;
        let row = sim_harness::results_table_row(&result);
        print!("{row}");
        self.results
            .write_all(row.as_bytes())
            .map_err(|e| format!("write results.txt: {e}"))?;
        self.traces
            .write_all(sim_harness::trace::serialize_cell(&result).as_bytes())
            .map_err(|e| format!("write traces.txt: {e}"))
    }
}

/// Runs the scenario engine: `--scenarios <spec|dir> [--out <dir>]
/// [--cache-dir <dir>] [--replay <dir>]`. Normal mode streams the results
/// table and the trace file into the output directory cell by cell (plus
/// `cache-stats.txt` with the farm's hit/miss bookkeeping); replay mode
/// re-runs the matrix and exits non-zero unless metrics and traces are
/// byte-identical to the recorded baseline.
fn run_scenarios(rest: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut out_dir = "scenario-out".to_string();
    let mut replay_dir: Option<String> = None;
    let mut cache_flag: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = it.next().ok_or("--out needs a directory")?.clone();
            }
            "--replay" => {
                replay_dir = Some(it.next().ok_or("--replay needs a directory")?.clone());
            }
            "--cache-dir" => {
                cache_flag = Some(it.next().ok_or("--cache-dir needs a directory")?.clone());
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => return Err(format!("unexpected scenario argument \"{other}\"")),
        }
    }
    let path = path.ok_or("--scenarios needs a spec file or directory")?;
    let specs = sim_harness::load_specs(path)?;
    let cells = sim_harness::expand(&specs);
    println!(
        "scenario matrix: {} scenario(s), {} cell(s), {} pool worker(s)\n",
        specs.len(),
        cells.len(),
        rayon::current_num_threads()
    );
    let start = std::time::Instant::now();
    if let Some(replay_dir) = replay_dir {
        // Replay must genuinely re-execute — serving cached results would
        // verify the cache against itself, not the engine's determinism.
        if cache_flag.is_some() {
            return Err("--cache-dir cannot be combined with --replay (replay re-executes)".into());
        }
        let results = sim_harness::run_cells(&cells)?;
        println!("{}", sim_harness::results_table(&results));
        println!("[matrix completed in {:.1?}]", start.elapsed());
        let baseline_path = std::path::Path::new(&replay_dir).join("traces.txt");
        let baseline_text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let baseline = sim_harness::trace::parse(&baseline_text)?;
        let mismatches = sim_harness::trace::compare(&results, &baseline);
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!("replay mismatch: {m}");
            }
            return Err(format!(
                "replay FAILED: {} mismatch(es) against {}",
                mismatches.len(),
                baseline_path.display()
            ));
        }
        println!(
            "replay OK: {} cell(s) byte-identical to {}",
            results.len(),
            baseline_path.display()
        );
    } else {
        let out = std::path::Path::new(&out_dir);
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let farm_opts = sim_harness::FarmOptions {
            telemetry: sim_harness::telemetry_env_enabled(),
            cache_dir: resolve_cache_dir(cache_flag),
        };
        let mut sink = StreamSink::open(out)?;
        let report = sim_harness::run_farm(&cells, &farm_opts, &mut sink)?;
        sink.finish()?;
        println!("\n[matrix completed in {:.1?}]", start.elapsed());
        std::fs::write(out.join("cache-stats.txt"), report.stats_text())
            .map_err(|e| format!("write cache-stats.txt: {e}"))?;
        if farm_opts.cache_dir.is_some() {
            println!(
                "cache: {} hit(s), {} miss(es), {} store(s), {} rejected (hit rate {:.1}%)",
                report.hits,
                report.misses,
                report.stores,
                report.rejected.len(),
                report.hit_rate()
            );
            for diag in &report.rejected {
                eprintln!("cache: {diag}");
            }
        }
        println!(
            "wrote {out_dir}/results.txt, {out_dir}/traces.txt, and {out_dir}/cache-stats.txt"
        );
    }
    Ok(())
}

/// Runs the farm's request loop: `--serve [--cache-dir <dir>]`. Reads
/// scenario requests line-by-line from stdin and streams result blocks to
/// stdout under request-id framing (protocol: `docs/SCENARIO_FORMAT.md`).
fn run_serve(rest: &[String]) -> Result<(), String> {
    let mut cache_flag: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                cache_flag = Some(it.next().ok_or("--cache-dir needs a directory")?.clone());
            }
            other => return Err(format!("unexpected serve argument \"{other}\"")),
        }
    }
    let opts = sim_harness::ServeOptions {
        cache_dir: resolve_cache_dir(cache_flag),
        telemetry: sim_harness::telemetry_env_enabled(),
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let summary = sim_harness::serve(stdin.lock(), &mut stdout, &opts)?;
    eprintln!(
        "serve session: {} request(s), {} cell(s), {} hit(s), {} miss(es)",
        summary.requests, summary.cells, summary.hits, summary.misses
    );
    Ok(())
}

/// Formats a nanosecond reading for the human profile summary (µs below
/// 1 ms, ms below 1 s, seconds above).
fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Runs the profiling mode: `--profile <spec|dir> [--out <dir>]`. The whole
/// matrix runs with the telemetry sidecar enabled (`docs/OBSERVABILITY.md`);
/// stdout gets the results table with the wall(ms) column plus a per-cell
/// summary (round wall-time percentiles, phase breakdown, shard imbalance),
/// and the output directory gets `results.txt` and `traces.txt` (both fully
/// deterministic, as in `--scenarios`), `telemetry.jsonl` (one full report
/// per cell, wall fields segregated under `"wall"`), and
/// `telemetry-deterministic.txt` (the shard-invariant projection of the
/// same reports — what CI diffs byte-for-byte across `CONGEST_SHARDS`).
fn run_profile(rest: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut out_dir = "profile-out".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = it.next().ok_or("--out needs a directory")?.clone();
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => return Err(format!("unexpected profile argument \"{other}\"")),
        }
    }
    let path = path.ok_or("--profile needs a spec file or directory")?;
    let specs = sim_harness::load_specs(path)?;
    let cells = sim_harness::expand(&specs);
    println!(
        "profiling matrix: {} scenario(s), {} cell(s), {} pool worker(s), telemetry on\n",
        specs.len(),
        cells.len(),
        rayon::current_num_threads()
    );
    let start = std::time::Instant::now();
    let results = sim_harness::run_cells_with(&cells, true)?;
    println!("{}", sim_harness::results_table_with_wall(&results));
    for r in &results {
        let Some(report) = &r.outcome.telemetry else {
            continue;
        };
        let (p50, p95, max) = report.round_wall_percentiles();
        let det = &report.deterministic;
        let wall = &report.wall;
        println!("profile: {}", r.cell.id());
        println!(
            "  {} round(s), {} message(s); round wall p50 {} p95 {} max {}",
            det.rounds,
            det.messages,
            fmt_nanos(p50),
            fmt_nanos(p95),
            fmt_nanos(max)
        );
        let phase_total: u64 = wall.phase_nanos.iter().sum();
        if phase_total > 0 {
            print!("  phases:");
            for phase in congest_net::Phase::ALL {
                let nanos = wall.phase_nanos[phase.index()];
                print!(
                    " {} {:.1}%",
                    phase.name(),
                    nanos as f64 * 100.0 / phase_total as f64
                );
            }
            println!();
        }
        if wall.shard_count > 1 {
            println!(
                "  shards: {}, imbalance {:.2}x, adaptive-sequential rounds {}",
                wall.shard_count,
                report.shard_imbalance(),
                wall.adaptive_sequential_rounds
            );
        }
        if matches!(r.cell.mode, congest_net::ExecMode::Event(_)) {
            println!(
                "  event heap depth buckets {} skew buckets {}",
                det.heap_depth.to_json(),
                det.skew_per_round.to_json()
            );
        }
    }
    println!("[profile completed in {:.1?}]", start.elapsed());
    let out = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(
        out.join("results.txt"),
        sim_harness::results_table(&results),
    )
    .map_err(|e| format!("write results.txt: {e}"))?;
    std::fs::write(
        out.join("traces.txt"),
        sim_harness::trace::serialize(&results),
    )
    .map_err(|e| format!("write traces.txt: {e}"))?;
    let mut jsonl = String::new();
    let mut deterministic = String::new();
    for r in &results {
        if let Some(report) = &r.outcome.telemetry {
            let id = r.cell.id();
            jsonl.push_str(&report.to_jsonl(&id));
            jsonl.push('\n');
            deterministic.push_str(&report.deterministic_jsonl(&id));
            deterministic.push('\n');
        }
    }
    std::fs::write(out.join("telemetry.jsonl"), jsonl)
        .map_err(|e| format!("write telemetry.jsonl: {e}"))?;
    std::fs::write(out.join("telemetry-deterministic.txt"), deterministic)
        .map_err(|e| format!("write telemetry-deterministic.txt: {e}"))?;
    println!(
        "wrote {out_dir}/results.txt, {out_dir}/traces.txt, {out_dir}/telemetry.jsonl, \
         and {out_dir}/telemetry-deterministic.txt"
    );
    Ok(())
}

/// Runs the resilience scorecard: `--scorecard <spec|dir> [--out <dir>]`.
/// Every scenario with a fault plan runs as written and as its fault-free
/// twin; the per `(protocol, fault class)` aggregation (success rate,
/// message/round overhead vs fault-free) is printed and written — with both
/// underlying results tables — into the output directory.
fn run_scorecard(rest: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut out_dir = "scorecard-out".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = it.next().ok_or("--out needs a directory")?.clone();
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => return Err(format!("unexpected scorecard argument \"{other}\"")),
        }
    }
    let path = path.ok_or("--scorecard needs a spec file or directory")?;
    let specs = sim_harness::load_specs(path)?;
    let faulty = specs.iter().filter(|s| !s.faults.is_empty()).count();
    println!(
        "resilience scorecard: {} scenario(s) loaded, {} with fault plans \
         (each runs against its fault-free twin), {} pool worker(s)\n",
        specs.len(),
        faulty,
        rayon::current_num_threads()
    );
    let start = std::time::Instant::now();
    let card = sim_harness::run_scorecard(&specs)?;
    let table = card.table();
    println!("{table}");
    println!("[scorecard completed in {:.1?}]", start.elapsed());
    let out = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(out.join("scorecard.txt"), &table)
        .map_err(|e| format!("write scorecard.txt: {e}"))?;
    std::fs::write(
        out.join("results.txt"),
        sim_harness::results_table(&card.faulty),
    )
    .map_err(|e| format!("write results.txt: {e}"))?;
    std::fs::write(
        out.join("baseline.txt"),
        sim_harness::results_table(&card.baseline),
    )
    .map_err(|e| format!("write baseline.txt: {e}"))?;
    println!("wrote {out_dir}/scorecard.txt, {out_dir}/results.txt, and {out_dir}/baseline.txt");
    Ok(())
}

/// Exit code for a scenario/scorecard error: spec-authoring errors that the
/// registry can explain (an unknown protocol, with the registered names
/// listed) exit 2 like other usage errors; everything else exits 1.
fn scenario_exit_code(message: &str) -> i32 {
    if message.contains("unknown protocol") {
        2
    } else {
        1
    }
}

/// Runs the selected experiment tables (all of them for an empty selection).
fn run_experiments(requested: &[String]) {
    let run_all = requested.is_empty();
    type Experiment = fn() -> ExperimentTable;
    let experiments: Vec<(&str, Experiment)> = vec![
        ("e1", e1_complete_le as Experiment),
        ("e2", e2_tradeoff),
        ("e3", e3_mixing_le),
        ("e4", e4_diameter_two_le),
        ("e5", e5_general_le),
        ("e6", e6_agreement),
        ("e7", e7_star_search),
        ("e8", e8_star_counting),
        ("e9", e9_walk_ablation),
        ("e10", e10_candidate_sampling),
    ];
    println!(
        "Quantum Communication Advantage for Leader Election and Agreement — experiment suite"
    );
    println!("(message counts are measured on the CONGEST simulator; see README.md)\n");
    for (name, experiment) in experiments {
        if run_all || requested.iter().any(|r| r == name) {
            let start = std::time::Instant::now();
            let table = experiment();
            println!("{table}");
            println!("  [{name} completed in {:.1?}]\n", start.elapsed());
        }
    }
}

fn print_help() {
    println!(
        "experiments — tables, benchmarks, and scenarios for the PODC 2025 reproduction

USAGE:
    experiments [e1 ... e10]                 print experiment tables (all by default)
    experiments --bench-network              round-engine microbenchmark -> BENCH_network.json
                                             (gated by BENCH_NETWORK_MIN_SPEEDUP if set)
    experiments --scenarios <spec|dir>       run a scenario matrix (*.scn specs; a directory
                                             sweeps every spec through one work-stealing queue)
        [--out <dir>]                        output directory for results.txt, traces.txt, and
                                             cache-stats.txt, streamed cell by cell
                                             (default: scenario-out)
        [--cache-dir <dir>]                  content-addressed cell cache: hits return stored
                                             results without re-running; misses execute and
                                             persist (key: spec stanza + code fingerprint; see
                                             docs/SCENARIO_FORMAT.md)
        [--replay <dir>]                     re-run and assert byte-identical metrics + traces
                                             against <dir>/traces.txt instead of writing output
                                             (not combinable with --cache-dir)
    experiments --serve                      read scenario requests line-by-line from stdin and
                                             stream result blocks to stdout under request-id
                                             framing (protocol: docs/SCENARIO_FORMAT.md)
        [--cache-dir <dir>]                  share a cell cache across all requests
    experiments --scorecard <spec|dir>       resilience scorecard: run every faulty scenario
                                             against its fault-free twin and aggregate success
                                             rate + message/round overhead per protocol x
                                             fault class
        [--out <dir>]                        output directory for scorecard.txt, results.txt,
                                             and baseline.txt (default: scorecard-out)
    experiments --profile <spec|dir>         run a scenario matrix with the telemetry sidecar
                                             on: per-cell wall times, phase breakdown, shard
                                             utilization, and round histograms (see
                                             docs/OBSERVABILITY.md)
        [--out <dir>]                        output directory for results.txt, traces.txt,
                                             telemetry.jsonl, and telemetry-deterministic.txt
                                             (default: profile-out)
    experiments --help                       this text

ENVIRONMENT:
    CONGEST_SHARDS=<k>               worker shards for auto-configured networks
                                     (default 1 = sequential; metrics and traces
                                     are byte-identical for every k)
    RAYON_NUM_THREADS=<t>            thread-pool size for sweeps, scenario cells,
                                     and sharded rounds (default: available cores)
    CONGEST_TELEMETRY=1              turn the telemetry sidecar on for --scenarios
                                     and --scorecard cells too (--profile always
                                     enables it; any other value = off; never
                                     changes metrics, traces, or replay; bypasses
                                     the cell cache, which stores no wall data)
    CONGEST_CACHE=<dir>              default cell-cache directory for --scenarios
                                     and --serve when --cache-dir is not given
                                     (empty/unset = no caching)
    BENCH_SHARDS=<k>                 shard count for the csr-mt bench records
                                     (default 4; --bench-network only)
    BENCH_LARGE_N=0                  skip the million-node implicit tier
                                     (--bench-network only; CI always runs it)
    BENCH_NETWORK_MIN_SPEEDUP=<x>    fail --bench-network if the aggregate
                                     csr-vs-legacy flood speedup drops below x
                                     (CI sets 3.0; unset = record only)

Scenario cells honour CONGEST_SHARDS; traces recorded at one shard count replay
byte-identically at any other (the deterministic barrier-merge invariant).
Specs may mix round-mode and event-mode scenarios in one matrix: `mode =
\"event\"` plus a `scheduler = [name, bound, seed]` stanza runs its cells on
the same round engine with that scheduler adversary skewing delivery (see
docs/EXECUTION_MODELS.md); replay covers both modes."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One dispatch point for every subcommand, so new entry points stop
    // accreting ad-hoc flag scans.
    match args.first().map(String::as_str) {
        Some("--help" | "-h") => print_help(),
        Some("--bench-network") => run_network_bench(),
        Some("--scenarios") => {
            if let Err(message) = run_scenarios(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(scenario_exit_code(&message));
            }
        }
        Some("--scorecard") => {
            if let Err(message) = run_scorecard(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(scenario_exit_code(&message));
            }
        }
        Some("--profile") => {
            if let Err(message) = run_profile(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(scenario_exit_code(&message));
            }
        }
        Some("--serve") => {
            if let Err(message) = run_serve(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(scenario_exit_code(&message));
            }
        }
        Some(flag) if flag.starts_with("--") => {
            eprintln!("error: unknown flag \"{flag}\" (see --help)");
            std::process::exit(2);
        }
        _ => {
            // Experiment selections are bare names; a flag anywhere else in
            // the list is a misplaced subcommand, not a selection — reject
            // it instead of silently filtering nothing.
            if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
                eprintln!(
                    "error: flag \"{flag}\" must come first (subcommands take no experiment names; see --help)"
                );
                std::process::exit(2);
            }
            let requested: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
            run_experiments(&requested);
        }
    }
}
