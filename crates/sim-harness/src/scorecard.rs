//! The resilience scorecard: every faulty scenario measured against its
//! fault-free twin.
//!
//! [`run_scorecard`] takes a spec list, keeps the scenarios that install a
//! fault plan, and runs each one **twice**: once as written and once as its
//! [`fault_free_twin`] (same name, topology, protocol, sizes, seeds, round
//! budget and execution mode — only the fault plan replaced by the empty
//! plan). Cell results are then aggregated per `(protocol, fault class)`
//! into [`ScorecardRow`]s: success rate under faults, success rate of the
//! twin, and message/round overhead ratios versus the twin — the
//! comparative fault-tolerance benchmark the ROADMAP asks the scenario
//! registry to become.
//!
//! Everything here inherits the engine's determinism: twin expansion
//! preserves the spec's `sizes × seeds` shape, so faulty cell `i` and
//! baseline cell `i` describe the same `(topology instance, protocol,
//! seed)` triple, matrices merge in cell order, rows aggregate in cell
//! order and sort by `(protocol, fault class)`, and the rendered table is
//! byte-identical run to run (CI diffs the scorecard of
//! `examples/scenarios/adversary.scn` against `tests/golden/scorecard/`).

use congest_net::FaultPlan;

use crate::engine::{run_matrix, CellResult};
use crate::spec::ScenarioSpec;

/// The canonical fault-class label of a plan: the active fault kinds in a
/// fixed order (`adversarial-drop`, `random-drop`, `outage`, `latency`,
/// `crash`) joined with `+`, or `fault-free` for an empty plan.
///
/// The label is what scorecard rows aggregate by, so two plans that differ
/// only in parameters (window bounds, drop rate, strike budget) land in the
/// same row.
#[must_use]
pub fn fault_class(plan: &FaultPlan) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if plan.adversarial_drops_per_round() > 0 {
        parts.push("adversarial-drop");
    }
    if plan.drop_rate() > 0.0 {
        parts.push("random-drop");
    }
    if !plan.outages().is_empty() {
        parts.push("outage");
    }
    if !plan.latencies().is_empty() {
        parts.push("latency");
    }
    if !plan.crashes().is_empty() {
        parts.push("crash");
    }
    if parts.is_empty() {
        "fault-free".into()
    } else {
        parts.join("+")
    }
}

/// The fault-free twin of a scenario: identical in every respect except
/// that the fault plan is replaced by the empty plan. Running the twin
/// yields the baseline column of the scorecard.
#[must_use]
pub fn fault_free_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut twin = spec.clone();
    twin.faults = FaultPlan::default();
    twin
}

/// One scorecard row: every cell of one protocol under one fault class,
/// aggregated, next to the same cells' fault-free baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct ScorecardRow {
    /// The spec-format protocol name.
    pub protocol: String,
    /// The [`fault_class`] label the cells ran under.
    pub fault_class: String,
    /// Number of cells aggregated into this row.
    pub cells: usize,
    /// Cells that solved their problem under faults.
    pub ok_cells: usize,
    /// Cells whose fault-free twin solved its problem.
    pub baseline_ok_cells: usize,
    /// Total messages across the faulty cells.
    pub messages: u64,
    /// Total messages across the fault-free twins.
    pub baseline_messages: u64,
    /// Total effective rounds across the faulty cells.
    pub rounds: u64,
    /// Total effective rounds across the fault-free twins.
    pub baseline_rounds: u64,
    /// Total dropped messages across the faulty cells (all causes).
    pub dropped: u64,
}

impl ScorecardRow {
    /// Fraction of faulty cells that solved their problem.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.ok_cells as f64 / self.cells as f64
    }

    /// Message overhead versus the fault-free twin (`None` when the twin
    /// sent no messages).
    #[must_use]
    pub fn message_overhead(&self) -> Option<f64> {
        (self.baseline_messages > 0).then(|| self.messages as f64 / self.baseline_messages as f64)
    }

    /// Round overhead versus the fault-free twin (`None` when the twin
    /// took no rounds).
    #[must_use]
    pub fn round_overhead(&self) -> Option<f64> {
        (self.baseline_rounds > 0).then(|| self.rounds as f64 / self.baseline_rounds as f64)
    }
}

/// A complete scorecard: the aggregated rows plus both raw matrices (in
/// cell order), so callers can pin or serialize the underlying runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Aggregated rows, sorted by `(protocol, fault class)`.
    pub rows: Vec<ScorecardRow>,
    /// The faulty cells, in cell order.
    pub faulty: Vec<CellResult>,
    /// The fault-free twin cells, in cell order (index-aligned with
    /// [`Scorecard::faulty`]).
    pub baseline: Vec<CellResult>,
}

impl Scorecard {
    /// Renders the scorecard table: one row per `(protocol, fault class)`,
    /// deterministic, with success rates and overhead-vs-baseline columns.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:<16} {:<32} {:>5} {:>8} {:>8} {:>9} {:>9} {:>9}",
            "protocol", "fault-class", "cells", "ok", "base-ok", "success", "msg-ovh", "round-ovh",
        )
        .unwrap();
        for r in &self.rows {
            let ratio = |v: Option<f64>| match v {
                Some(x) => format!("{x:.2}x"),
                None => "-".into(),
            };
            writeln!(
                out,
                "{:<16} {:<32} {:>5} {:>8} {:>8} {:>8.0}% {:>9} {:>9}",
                r.protocol,
                r.fault_class,
                r.cells,
                format!("{}/{}", r.ok_cells, r.cells),
                format!("{}/{}", r.baseline_ok_cells, r.cells),
                r.success_rate() * 100.0,
                ratio(r.message_overhead()),
                ratio(r.round_overhead()),
            )
            .unwrap();
        }
        out
    }
}

/// Runs the resilience scorecard for `specs`: every scenario with a fault
/// plan runs as written *and* as its fault-free twin, and the results are
/// aggregated per `(protocol, fault class)`.
///
/// Scenarios without a fault plan are skipped — they carry no resilience
/// signal of their own (the baselines are re-derived from the faulty
/// scenarios instead, so both columns describe identical cells).
///
/// # Errors
///
/// Returns a rendered error when no scenario installs a fault plan, or when
/// either matrix fails (a spec bug, reported for the first failing cell in
/// cell order).
pub fn run_scorecard(specs: &[ScenarioSpec]) -> Result<Scorecard, String> {
    let faulty_specs: Vec<ScenarioSpec> = specs
        .iter()
        .filter(|s| !s.faults.is_empty())
        .cloned()
        .collect();
    if faulty_specs.is_empty() {
        return Err(
            "scorecard needs at least one scenario with a fault plan (all cells are fault-free)"
                .into(),
        );
    }
    let twins: Vec<ScenarioSpec> = faulty_specs.iter().map(fault_free_twin).collect();
    let faulty = run_matrix(&faulty_specs)?;
    let baseline = run_matrix(&twins)?;
    debug_assert_eq!(faulty.len(), baseline.len());
    let mut rows: Vec<ScorecardRow> = Vec::new();
    for (f, b) in faulty.iter().zip(&baseline) {
        let protocol = f.cell.protocol.name().to_string();
        let class = fault_class(&f.cell.faults);
        let row = match rows
            .iter_mut()
            .find(|r| r.protocol == protocol && r.fault_class == class)
        {
            Some(row) => row,
            None => {
                rows.push(ScorecardRow {
                    protocol,
                    fault_class: class,
                    cells: 0,
                    ok_cells: 0,
                    baseline_ok_cells: 0,
                    messages: 0,
                    baseline_messages: 0,
                    rounds: 0,
                    baseline_rounds: 0,
                    dropped: 0,
                });
                rows.last_mut().unwrap()
            }
        };
        row.cells += 1;
        row.ok_cells += usize::from(f.outcome.ok);
        row.baseline_ok_cells += usize::from(b.outcome.ok);
        row.messages += f.outcome.metrics.total_messages();
        row.baseline_messages += b.outcome.metrics.total_messages();
        row.rounds += f.outcome.effective_rounds;
        row.baseline_rounds += b.outcome.effective_rounds;
        row.dropped += f.outcome.metrics.dropped_messages;
    }
    rows.sort_by(|a, b| {
        (a.protocol.as_str(), a.fault_class.as_str())
            .cmp(&(b.protocol.as_str(), b.fault_class.as_str()))
    });
    Ok(Scorecard {
        rows,
        faulty,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProtocolKind;
    use congest_net::topology::Family;

    #[test]
    fn fault_class_labels_are_canonical() {
        assert_eq!(fault_class(&FaultPlan::default()), "fault-free");
        assert_eq!(
            fault_class(&FaultPlan::new(1).adversarial_drops(2)),
            "adversarial-drop"
        );
        // Fixed component order regardless of builder call order.
        assert_eq!(
            fault_class(
                &FaultPlan::new(1)
                    .crash(2, 3)
                    .drop_probability(0.1)
                    .adversarial_drops(1)
            ),
            "adversarial-drop+random-drop+crash"
        );
    }

    #[test]
    fn twin_strips_only_the_fault_plan() {
        let spec = ScenarioSpec::new("x", Family::Cycle, ProtocolKind::FloodFt)
            .sizes([16, 24])
            .seeds([1, 2])
            .max_rounds(500)
            .faults(FaultPlan::new(3).adversarial_drops(1));
        let twin = fault_free_twin(&spec);
        assert!(twin.faults.is_empty());
        assert_eq!(twin.name, spec.name);
        assert_eq!(twin.sizes, spec.sizes);
        assert_eq!(twin.seeds, spec.seeds);
        assert_eq!(twin.max_rounds, spec.max_rounds);
    }

    #[test]
    fn scorecard_aggregates_per_protocol_and_fault_class() {
        let specs = vec![
            ScenarioSpec::new("ft-adv", Family::Cycle, ProtocolKind::FloodFt)
                .sizes([12])
                .seeds([1, 2])
                .max_rounds(400)
                .faults(FaultPlan::new(7).adversarial_drops(1)),
            // Fault-free scenarios are skipped, not a second row.
            ScenarioSpec::new("ft-clean", Family::Cycle, ProtocolKind::FloodFt).sizes([12]),
        ];
        let card = run_scorecard(&specs).unwrap();
        assert_eq!(card.rows.len(), 1);
        let row = &card.rows[0];
        assert_eq!(row.protocol, "flood-ft");
        assert_eq!(row.fault_class, "adversarial-drop");
        assert_eq!(row.cells, 2);
        assert_eq!(row.baseline_ok_cells, 2, "fault-free twins must succeed");
        assert!(row.dropped > 0, "the adversary must actually strike");
        assert!(
            row.message_overhead().unwrap() > 1.0,
            "struck messages cost retries"
        );
        let table = card.table();
        assert!(table.contains("flood-ft"), "{table}");
        assert!(table.contains("adversarial-drop"), "{table}");
    }

    #[test]
    fn all_fault_free_specs_are_a_rendered_error() {
        let specs = vec![ScenarioSpec::new(
            "clean",
            Family::Cycle,
            ProtocolKind::Flood,
        )];
        let err = run_scorecard(&specs).unwrap_err();
        assert!(err.contains("fault plan"), "{err}");
    }
}
