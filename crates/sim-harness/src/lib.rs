//! # sim-harness — the scenario engine
//!
//! Declarative workloads for the CONGEST simulator: scenario specs name a
//! topology, a protocol, parameter ranges, and a fault plan; the engine
//! expands them into a cell matrix, runs every cell in parallel, renders a
//! deterministic results table, and records a trace that replay mode
//! re-verifies byte-for-byte.
//!
//! # Scenario architecture
//!
//! (`docs/ARCHITECTURE.md` in the repository root places this section in
//! the whole-workspace narrative, and `docs/SCENARIO_FORMAT.md` documents
//! the full `.scn` grammar; the invariants stated here are the
//! authoritative ones for this crate.)
//!
//! The subsystem is six layers, each usable on its own:
//!
//! * **Specs** ([`spec`]) — [`ScenarioSpec`]: a typed builder plus a
//!   TOML-ish text format (`[scenario]` / `[faults]` sections, parsed with
//!   no new dependencies). A spec is a *matrix generator*: `sizes × seeds`
//!   cells of one `(topology, protocol, fault plan, execution mode)`
//!   combination — `mode = "event"` plus a `scheduler = [name, bound,
//!   seed]` stanza runs the cells under that scheduler adversary
//!   (`docs/EXECUTION_MODELS.md`).
//! * **Registries** ([`registry`]) — every topology name resolves to a
//!   [`congest_net::topology::Family`] (cycle, torus, complete,
//!   expander/random-regular, star, hypercube) and every protocol name to a
//!   [`ProtocolKind`] adapter: the flood programs run through
//!   [`congest_net::SyncRuntime`], the leader-election protocols (quantum
//!   and classical) through [`qle::LeaderElection::run_with`], both over a
//!   network built by [`qle::RunOptions::network_with`] — so every cell
//!   honours the scenario's fault plan, trace flag, and execution mode.
//! * **Engine** ([`engine`]) — [`run_matrix`] fans cells out across the
//!   workspace `rayon` pool and merges results **in cell order** (spec ×
//!   size × seed), so tables and traces are byte-identical regardless of
//!   scheduling. [`run_cells_with`] additionally threads the telemetry
//!   sidecar through every cell and wall-times each one — the profiling
//!   path behind `experiments --profile` (wall data lives outside the
//!   determinism domain; see `docs/OBSERVABILITY.md`).
//! * **Trace & replay** ([`trace`]) — every cell records the network's
//!   round-stamped fault events plus its full [`congest_net::Metrics`];
//!   [`trace::serialize`] writes the line-oriented trace file and
//!   [`trace::compare`] re-verifies a fresh run against it.
//! * **Farm** ([`farm`]) — the batch-execution path behind all of the
//!   above: one global cell queue (a whole directory of specs at once),
//!   work-stealing chunk claiming across the `rayon` pool, and results
//!   sorted back into cell order before they are returned, with every
//!   failing cell reported, one per line.
//! * **Scorecard** ([`scorecard`]) — [`run_scorecard`] runs every faulty
//!   scenario next to its fault-free twin and aggregates success rate and
//!   message/round overhead per `(protocol, fault class)` — the resilience
//!   benchmark surfaced by `experiments --scorecard`.
//!
//! # Determinism and replay invariants
//!
//! The engine inherits — and its replay mode re-verifies — the simulator's
//! two layered invariants:
//!
//! 1. **Seed determinism:** a cell is a pure function of
//!    `(spec, n, seed)`. Topology generation, protocol randomness, and the
//!    fault plan's drop stream are all seeded; nothing reads the clock, the
//!    environment, or scheduler order.
//! 2. **Order invariance:** every cell runs its rounds on one thread, and
//!    fault decisions happen at the round barrier in delivery order, which
//!    is send order; the farm merges cells in matrix order whatever the
//!    pool's scheduling. So a trace recorded by one run replays
//!    byte-for-byte in another, at any worker count (CI replays the
//!    committed matrix against its own recorded trace, and diffs both
//!    against `tests/golden/`).
//!
//! Consequently `replay` needs no stored network state: re-running the spec
//! and comparing metrics + events *is* the replay, and any divergence means
//! the engine, a protocol, or the fault plane lost determinism.
//!
//! # Example
//!
//! ```
//! use congest_net::{topology::Family, FaultPlan};
//! use sim_harness::{run_matrix, results_table, trace, ProtocolKind, ScenarioSpec};
//!
//! let specs = vec![
//!     ScenarioSpec::new("flood-cycle-drop", Family::Cycle, ProtocolKind::Flood)
//!         .sizes([24, 32])
//!         .seeds([1, 2])
//!         .faults(FaultPlan::new(7).drop_probability(0.05).crash(3, 2)),
//! ];
//! let results = run_matrix(&specs).unwrap();
//! println!("{}", results_table(&results));
//! // Replay: re-run and compare against the recorded trace.
//! let baseline = trace::parse(&trace::serialize(&results)).unwrap();
//! assert!(trace::compare(&run_matrix(&specs).unwrap(), &baseline).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod farm;
pub mod registry;
pub mod scorecard;
pub mod spec;
pub mod trace;

pub use engine::{
    expand, results_table, results_table_with_wall, run_cell_with, run_cells, run_cells_with,
    run_matrix, Cell, CellResult,
};
pub use farm::{run_cells_collect, FarmOptions};
pub use registry::{parse_topology, topology_name, CellOutcome, ProtocolKind, ALL_PROTOCOLS};
pub use scorecard::{fault_class, fault_free_twin, run_scorecard, Scorecard, ScorecardRow};
pub use spec::{ScenarioSpec, SpecError};

use std::path::Path;

/// Loads scenario specs from `path`: a single spec file, or a directory
/// whose `*.scn` files are loaded in sorted filename order (so matrix order
/// is stable).
///
/// # Errors
///
/// Returns a rendered error for I/O failures, parse errors (with file and
/// line), or an empty matrix.
pub fn load_specs(path: impl AsRef<Path>) -> Result<Vec<ScenarioSpec>, String> {
    let path = path.as_ref();
    let mut files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
            .collect();
        entries.sort();
        entries
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("{}: no .scn spec files found", path.display()));
    }
    let mut specs = Vec::new();
    for file in files.drain(..) {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let parsed =
            ScenarioSpec::parse_many(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        specs.extend(parsed);
    }
    if specs.is_empty() {
        return Err(format!("{}: no scenarios defined", path.display()));
    }
    Ok(specs)
}
