//! The workspace's experiment binary: prints the experiment tables (E1–E10)
//! and drives the scenario engine (declarative workloads, fault injection,
//! deterministic replay). The benchmark lives in `perfbench/`.
//!
//! Usage (see also `--help`):
//!
//! ```text
//! cargo run --release -p bench-harness --bin experiments                  # all experiments
//! cargo run --release -p bench-harness --bin experiments -- e1 e7         # a selection
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios
//!     # run a scenario matrix; streams results.txt + traces.txt (+ cache-stats.txt) to --out
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios \
//!     --cache-dir farm-cache
//!     # same, through the content-addressed cell cache: a warm rerun re-executes nothing
//! cargo run --release -p bench-harness --bin experiments -- --scenarios examples/scenarios \
//!     --replay scenario-out
//!     # re-run the matrix and assert byte-identical metrics + traces
//! cargo run --release -p bench-harness --bin experiments -- --scorecard examples/scenarios
//!     # resilience scorecard: every faulty scenario vs its fault-free twin,
//!     # aggregated per protocol × fault class; writes scorecard.txt to --out
//! cargo run --release -p bench-harness --bin experiments -- --profile examples/scenarios
//!     # run the matrix with the telemetry sidecar on: per-cell wall times,
//!     # phase breakdown, round histograms; writes telemetry.jsonl (+ the
//!     # usual results/traces) to --out
//! ```

use bench_harness::{
    e10_candidate_sampling, e1_complete_le, e2_tradeoff, e3_mixing_le, e4_diameter_two_le,
    e5_general_le, e6_agreement, e7_star_search, e8_star_counting, e9_walk_ablation,
    ExperimentTable,
};

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
    fn on_start(&mut self) -> Result<(), String> {
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

    fn on_cell(&mut self, _index: usize, result: sim_harness::CellResult) -> Result<(), String> {
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
fn run_scenarios(rest: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut out_dir = "scenario-out".to_string();
    let mut replay_dir: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = flag_value(it.next(), "--out")?;
            }
            "--replay" => {
                replay_dir = Some(flag_value(it.next(), "--replay")?);
            }
            "--cache-dir" => {
                cache_dir = Some(flag_value(it.next(), "--cache-dir")?);
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected scenario argument \"{other}\""
                )))
            }
        }
    }
    let path =
        path.ok_or_else(|| CliError::Usage("--scenarios needs a spec file or directory".into()))?;
    // Replay must genuinely re-execute — serving cached results would
    // verify the cache against itself, not the engine's determinism.
    if replay_dir.is_some() && cache_dir.is_some() {
        return Err(CliError::Usage(
            "--cache-dir cannot be combined with --replay (replay re-executes)".into(),
        ));
    }
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
            return Err(CliError::Run(format!(
                "replay FAILED: {} mismatch(es) against {}",
                mismatches.len(),
                baseline_path.display()
            )));
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
            telemetry: false,
            cache_dir: cache_dir.map(std::path::PathBuf::from),
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
/// summary (round wall-time percentiles, phase breakdown), and the output
/// directory gets `results.txt` and `traces.txt` (both fully deterministic,
/// as in `--scenarios`), `telemetry.jsonl` (one full report per cell, wall
/// fields segregated under `"wall"`), and `telemetry-deterministic.txt`
/// (the deterministic projection of the same reports — what CI diffs
/// byte-for-byte against `tests/golden/telemetry-deterministic.txt`).
fn run_profile(rest: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut out_dir = "profile-out".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = flag_value(it.next(), "--out")?;
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected profile argument \"{other}\""
                )))
            }
        }
    }
    let path =
        path.ok_or_else(|| CliError::Usage("--profile needs a spec file or directory".into()))?;
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
        if matches!(r.cell.mode, congest_net::ExecMode::Event(_)) {
            println!(
                "  event queue depth buckets {} skew buckets {}",
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
fn run_scorecard(rest: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut out_dir = "scorecard-out".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = flag_value(it.next(), "--out")?;
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected scorecard argument \"{other}\""
                )))
            }
        }
    }
    let path =
        path.ok_or_else(|| CliError::Usage("--scorecard needs a spec file or directory".into()))?;
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

/// Why a subcommand failed, which decides the exit code.
#[derive(Debug)]
enum CliError {
    /// CLI misuse: a missing or unexpected argument, or flags that cannot
    /// be combined. Exits 2.
    Usage(String),
    /// The run itself failed: an unreadable or invalid spec, an I/O error,
    /// a replay mismatch. Exits 1, except that a spec naming an unknown
    /// protocol (which the registry explains, listing the registered
    /// names) exits 2 like other usage errors.
    Run(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Run(message) if message.contains("unknown protocol") => 2,
            CliError::Run(_) => 1,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Run(message)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Run(message) => f.write_str(message),
        }
    }
}

/// The directory that must follow `flag`, or a usage error if none does.
fn flag_value(value: Option<&String>, flag: &str) -> Result<String, CliError> {
    value
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a directory")))
}

/// An experiment: builds one table.
type Experiment = fn() -> ExperimentTable;

/// The experiment tables, in suite order.
const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("e1", e1_complete_le),
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

/// The experiments to run, in suite order: all of them for an empty
/// request, otherwise each one named in `requested` (matched
/// case-insensitively; a repeated name runs once).
///
/// # Errors
///
/// The first requested name that is not an experiment, as a message naming
/// it and listing the known ones.
fn select_experiments(requested: &[String]) -> Result<Vec<&'static str>, String> {
    let known = EXPERIMENTS.map(|(name, _)| name);
    if let Some(unknown) = requested
        .iter()
        .find(|r| !known.iter().any(|name| name.eq_ignore_ascii_case(r)))
    {
        return Err(format!(
            "unknown experiment \"{unknown}\" (known: {})",
            known.join(", ")
        ));
    }
    Ok(known
        .iter()
        .copied()
        .filter(|name| {
            requested.is_empty() || requested.iter().any(|r| name.eq_ignore_ascii_case(r))
        })
        .collect())
}

/// Runs the selected experiment tables (all of them for an empty selection).
/// Every name is checked before anything is printed; an unknown one exits 2.
fn run_experiments(requested: &[String]) {
    let selected = match select_experiments(requested) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "Quantum Communication Advantage for Leader Election and Agreement — experiment suite"
    );
    println!("(message counts are measured on the CONGEST simulator; see README.md)\n");
    for (name, experiment) in EXPERIMENTS {
        if selected.contains(&name) {
            let start = std::time::Instant::now();
            let table = experiment();
            println!("{table}");
            println!("  [{name} completed in {:.1?}]\n", start.elapsed());
        }
    }
}

fn print_help() {
    println!(
        "experiments — tables and scenarios for the PODC 2025 reproduction

USAGE:
    experiments [e1 ... e10]                 print experiment tables (all by default; names are
                                             case-insensitive, an unknown one exits 2)
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
    experiments --scorecard <spec|dir>       resilience scorecard: run every faulty scenario
                                             against its fault-free twin and aggregate success
                                             rate + message/round overhead per protocol x
                                             fault class
        [--out <dir>]                        output directory for scorecard.txt, results.txt,
                                             and baseline.txt (default: scorecard-out)
    experiments --profile <spec|dir>         run a scenario matrix with the telemetry sidecar
                                             on: per-cell wall times, phase breakdown, and
                                             round histograms (see docs/OBSERVABILITY.md)
        [--out <dir>]                        output directory for results.txt, traces.txt,
                                             telemetry.jsonl, and telemetry-deterministic.txt
                                             (default: profile-out)
    experiments --help                       this text

ENVIRONMENT:
    RAYON_NUM_THREADS=<t>            thread-pool size for scenario cells, which run
                                     side by side (default: available cores); each
                                     cell runs its rounds on one thread, so results
                                     and traces are byte-identical for every t

Specs may mix round-mode and event-mode scenarios in one matrix: `mode =
\"event\"` plus a `scheduler = [name, bound, seed]` stanza runs its cells on
the same round engine with that scheduler adversary skewing delivery (see
docs/EXECUTION_MODELS.md); replay covers both modes.

EXIT CODES:
    0    success
    1    the run failed: an unreadable spec, an I/O error, a replay mismatch
    2    CLI misuse (an unknown flag or experiment, a missing or unexpected
         argument, --cache-dir with --replay) or a spec naming an unknown
         protocol

The benchmark is perfbench/ (see perfbench/README.md), not this binary."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One dispatch point for every subcommand, so new entry points stop
    // accreting ad-hoc flag scans.
    let subcommand: fn(&[String]) -> Result<(), CliError> = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print_help();
            return;
        }
        Some("--scenarios") => run_scenarios,
        Some("--scorecard") => run_scorecard,
        Some("--profile") => run_profile,
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
            run_experiments(&args);
            return;
        }
    };
    if let Err(error) = subcommand(&args[1..]) {
        eprintln!("error: {error}");
        std::process::exit(error.exit_code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(requested: &[&str]) -> Vec<String> {
        requested.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn experiment_selection_checks_every_name() {
        assert_eq!(select_experiments(&names(&["e4"])), Ok(vec!["e4"]));
        // Case-insensitive, suite order, a repeat runs once.
        assert_eq!(
            select_experiments(&names(&["E10", "e2", "E2"])),
            Ok(vec!["e2", "e10"])
        );
        // An unknown name fails the whole selection, known names included.
        assert_eq!(
            select_experiments(&names(&["E4", "e99"])),
            Err(
                "unknown experiment \"e99\" (known: e1, e2, e3, e4, e5, e6, e7, e8, e9, e10)"
                    .to_string()
            )
        );
        assert_eq!(
            select_experiments(&[]),
            Ok(EXPERIMENTS.map(|(name, _)| name).to_vec())
        );
    }

    #[test]
    fn cli_misuse_exits_2_and_run_failures_exit_1() {
        let code = |result: Result<(), CliError>| result.unwrap_err().exit_code();
        // Every one of these is rejected before a spec is read.
        for misuse in [
            &[][..],
            &["specs", "--out"],
            &["specs", "--replay"],
            &["specs", "--cache-dir"],
            &["specs", "extra"],
            &["specs", "--cache-dir", "cache", "--replay", "out"],
        ] {
            assert_eq!(code(run_scenarios(&names(misuse))), 2, "{misuse:?}");
        }
        assert_eq!(code(run_profile(&[])), 2);
        assert_eq!(code(run_profile(&names(&["specs", "--out"]))), 2);
        assert_eq!(code(run_scorecard(&[])), 2);
        // A spec file that is not there is an I/O error, not misuse.
        assert_eq!(code(run_scenarios(&names(&["no-such-dir/missing.scn"]))), 1);
        // A spec naming an unknown protocol exits 2: the registry explains it.
        assert_eq!(
            CliError::Run("unknown protocol \"warp-le\"".into()).exit_code(),
            2
        );
    }
}
