//! The scenario engine: matrix expansion, parallel execution, and the
//! deterministic results table.
//!
//! [`expand`] turns a list of [`ScenarioSpec`]s into the flat cell matrix
//! (spec order × size order × seed order); [`run_matrix`] executes every
//! cell on the workspace's `rayon` pool and merges results **in cell
//! order**, so the results table and the serialized traces are
//! byte-identical no matter how the pool schedules the work — the same
//! seed-order-deterministic merge discipline the experiment sweeps use.

use congest_net::topology::Family;
use congest_net::{ExecMode, FaultPlan};
use qle::RunOptions;

use crate::farm::run_farm;
use crate::registry::{topology_name, CellOutcome, ProtocolKind};
use crate::spec::ScenarioSpec;

/// One cell of the scenario matrix: a concrete `(topology instance,
/// protocol, seed)` triple plus the scenario's execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Name of the scenario this cell came from.
    pub scenario: String,
    /// The topology family.
    pub topology: Family,
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Requested network size (the family may round it to a feasible size).
    pub n: usize,
    /// The seed for both the topology generator and the protocol run.
    pub seed: u64,
    /// Round budget for runtime-driven protocols.
    pub max_rounds: u64,
    /// The scenario's fault plan.
    pub faults: FaultPlan,
    /// The scenario's execution mode (plain rounds, or rounds under a
    /// scheduler adversary).
    pub mode: ExecMode,
}

impl Cell {
    /// A compact identity string, used in trace headers and error messages.
    /// Round-mode cells keep the historical five-field form; event-mode
    /// cells append the scheduler so baselines recorded under different
    /// adversaries can never be confused.
    #[must_use]
    pub fn id(&self) -> String {
        let mut id = format!(
            "{} protocol={} topology={} n={} seed={}",
            self.scenario,
            self.protocol.name(),
            topology_name(self.topology),
            self.n,
            self.seed
        );
        if let ExecMode::Event(sched) = self.mode {
            use std::fmt::Write;
            write!(
                id,
                " mode=event scheduler={},{},{}",
                sched.kind.name(),
                sched.bound,
                sched.seed
            )
            .unwrap();
        }
        id
    }
}

/// One executed cell: the cell identity plus everything it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// What it measured.
    pub outcome: CellOutcome,
    /// Wall-clock duration of the whole cell (topology generation plus the
    /// protocol run), in nanoseconds. Only measured when the cell ran with
    /// telemetry ([`run_cell_with`]); `0` otherwise, so default runs stay
    /// bit-reproducible end to end. Wall time is **not** part of the
    /// determinism domain: [`results_table`] omits it (use
    /// [`results_table_with_wall`] for the human-facing view) and the trace
    /// module's serialized baselines and replay comparison never read it
    /// (pinned by the workspace telemetry suite).
    pub wall_nanos: u64,
}

/// Expands scenario specs into the flat, deterministically-ordered cell
/// matrix (spec order × size order × seed order).
#[must_use]
pub fn expand(specs: &[ScenarioSpec]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in specs {
        for &n in &spec.sizes {
            for &seed in &spec.seeds {
                cells.push(Cell {
                    scenario: spec.name.clone(),
                    topology: spec.topology,
                    protocol: spec.protocol,
                    n,
                    seed,
                    max_rounds: spec.max_rounds,
                    faults: spec.faults.clone(),
                    mode: spec.mode,
                });
            }
        }
    }
    cells
}

/// Runs one cell: generate the topology, apply the scenario's execution
/// options, run the protocol, and collect metrics plus trace. With
/// telemetry on, the protocol's network records the sidecar (returned in
/// `outcome.telemetry`) and the whole cell is wall-timed into
/// [`CellResult::wall_nanos`]; with it off both stay empty and the run is
/// bit-identical to the pre-telemetry engine.
///
/// # Errors
///
/// Returns a rendered error naming the cell when topology generation or the
/// protocol run fails (a spec bug — e.g. a complete-graph protocol on a
/// cycle — not a fault-induced outcome).
pub fn run_cell_with(cell: &Cell, telemetry: bool) -> Result<CellResult, String> {
    let start = telemetry.then(std::time::Instant::now);
    let graph = cell
        .topology
        .generate(cell.n, cell.seed)
        .map_err(|e| format!("{}: topology: {e}", cell.id()))?;
    let opts = RunOptions {
        fault_plan: (!cell.faults.is_empty()).then(|| cell.faults.clone()),
        trace: true,
        mode: cell.mode,
        telemetry,
        ..RunOptions::default()
    };
    let outcome = cell
        .protocol
        .run(&graph, cell.seed, &opts, cell.max_rounds)
        .map_err(|e| format!("{}: {e}", cell.id()))?;
    let wall_nanos = start.map_or(0, |at| {
        u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    Ok(CellResult {
        cell: cell.clone(),
        outcome,
        wall_nanos,
    })
}

/// Runs an already-expanded cell list on the farm's work-stealing queue
/// (see [`crate::farm`]), returning results in cell order (deterministic
/// regardless of scheduling). Telemetry is off; [`run_cells_with`] turns
/// it on.
///
/// # Errors
///
/// Returns **every** failing cell's rendered error, one per line, in cell
/// order (also deterministic).
pub fn run_cells(cells: &[Cell]) -> Result<Vec<CellResult>, String> {
    run_cells_with(cells, false)
}

/// [`run_cells`] with telemetry explicitly pinned for every cell (what
/// `experiments --profile` uses).
///
/// # Errors
///
/// Same as [`run_cells`].
pub fn run_cells_with(cells: &[Cell], telemetry: bool) -> Result<Vec<CellResult>, String> {
    run_farm(cells, telemetry)
}

/// Expands `specs` and runs every cell (see [`expand`] and [`run_cells`]).
///
/// # Errors
///
/// Same as [`run_cells`].
pub fn run_matrix(specs: &[ScenarioSpec]) -> Result<Vec<CellResult>, String> {
    run_cells(&expand(specs))
}

/// Renders the results table: one row per cell, in cell order, with message,
/// round, congestion, and fault columns.
///
/// This table is fully **deterministic** (CI diffs it byte-for-byte against
/// a committed golden and across replay runs), so it deliberately carries no
/// wall-clock column — see [`results_table_with_wall`] for the profiling view.
#[must_use]
pub fn results_table(results: &[CellResult]) -> String {
    render_results_table(results, false)
}

/// [`results_table`] plus a trailing `wall(ms)` column per cell — the
/// human-facing view `experiments --profile` prints. Wall time is
/// non-deterministic by nature; anything that compares or diffs results
/// must use [`results_table`] (or the trace module) instead.
#[must_use]
pub fn results_table_with_wall(results: &[CellResult]) -> String {
    render_results_table(results, true)
}

fn render_results_table(results: &[CellResult], with_wall: bool) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    write!(
        out,
        "{:<24} {:<16} {:<12} {:>6} {:>6} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "scenario",
        "protocol",
        "topology",
        "n",
        "seed",
        "messages",
        "rounds",
        "peak/rd",
        "dropped",
        "delayed",
        "sched",
        "crashed",
        "ok",
    )
    .unwrap();
    if with_wall {
        write!(out, " {:>9}", "wall(ms)").unwrap();
    }
    writeln!(out, "  detail").unwrap();
    for r in results {
        let m = &r.outcome.metrics;
        write!(
            out,
            "{:<24} {:<16} {:<12} {:>6} {:>6} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6}",
            r.cell.scenario,
            r.cell.protocol.name(),
            topology_name(r.cell.topology),
            r.cell.n,
            r.cell.seed,
            m.total_messages(),
            r.outcome.effective_rounds,
            m.peak_messages_per_round,
            m.dropped_messages,
            m.delayed_messages,
            m.scheduled_messages,
            m.crashed_nodes,
            if r.outcome.ok { "yes" } else { "NO" },
        )
        .unwrap();
        if with_wall {
            let ms = r.wall_nanos as f64 / 1_000_000.0;
            write!(out, " {ms:>9.3}").unwrap();
        }
        writeln!(out, "  {}", r.outcome.detail).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("flood-cycle", Family::Cycle, ProtocolKind::Flood)
                .sizes([12, 16])
                .seeds([1, 2]),
            ScenarioSpec::new("ghs-torus", Family::Torus, ProtocolKind::GhsLe)
                .sizes([16])
                .seeds([3]),
        ]
    }

    #[test]
    fn expansion_is_spec_by_size_by_seed_ordered() {
        let cells = expand(&tiny_specs());
        let ids: Vec<(usize, u64)> = cells.iter().map(|c| (c.n, c.seed)).collect();
        assert_eq!(ids, vec![(12, 1), (12, 2), (16, 1), (16, 2), (16, 3)]);
        assert_eq!(cells[4].scenario, "ghs-torus");
    }

    #[test]
    fn matrix_runs_and_tables_deterministically() {
        let specs = tiny_specs();
        let a = run_matrix(&specs).unwrap();
        let b = run_matrix(&specs).unwrap();
        assert_eq!(a, b);
        let table = results_table(&a);
        assert_eq!(table.lines().count(), 1 + a.len());
        assert!(table.contains("flood-cycle"));
        assert!(table.contains("yes"));
    }

    #[test]
    fn spec_bugs_surface_as_cell_ordered_errors() {
        let specs =
            vec![ScenarioSpec::new("bad", Family::Cycle, ProtocolKind::QuantumLe).sizes([8, 12])];
        let err = run_matrix(&specs).unwrap_err();
        assert!(err.contains("bad protocol=quantum-le"), "{err}");
        // Every failing cell is reported (one line each), in cell order —
        // not just the lowest-indexed one.
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{err}");
        assert!(lines[0].contains("n=8"), "{err}");
        assert!(lines[1].contains("n=12"), "{err}");
    }
}
