//! The topology and protocol registries: every name a scenario spec can
//! mention, and the adapters that run each protocol one cell at a time.
//!
//! Topologies resolve to [`Family`] values (cycle, torus, complete,
//! expander/random-regular, star, hypercube — with the expander degree as a
//! parameter). Protocols are the [`ProtocolKind`] enum: the flood programs
//! driven through [`SyncRuntime`], and the leader-election
//! protocols (quantum and classical) driven through
//! [`LeaderElection::run_with`]. Both build their network with
//! [`RunOptions::network_with`], so every cell honours the scenario's fault
//! plan, trace and telemetry flags, and execution mode (event mode is a
//! scheduler adversary on that network).

use congest_net::programs::{Flood, FloodFt};
use congest_net::topology::Family;
use congest_net::{Graph, Metrics, NodeProgram, SyncRuntime, TelemetryReport, TraceEvent};

use classical_baselines::{CprDiameterTwoLe, GhsLe, KppCompleteLe, KppMixingLe};
use qle::algorithms::{QuantumLe, QuantumQwLe};
use qle::{LeaderElection, RunOptions};

/// Resolves a topology name (and expander degree, where applicable) from a
/// scenario spec. Accepted names: `complete`, `star`, `cycle`, `torus`,
/// `hypercube`, and `expander` / `random-regular` (degree defaults to 4).
#[must_use]
pub fn parse_topology(name: &str, degree: usize) -> Option<Family> {
    Some(match name {
        "complete" => Family::Complete,
        "star" => Family::Star,
        "cycle" => Family::Cycle,
        "torus" => Family::Torus,
        "hypercube" => Family::Hypercube,
        "expander" | "random-regular" => Family::RandomRegular {
            degree: if degree == 0 { 4 } else { degree },
        },
        _ => return None,
    })
}

/// The canonical spec-format name of a topology family (the inverse of
/// [`parse_topology`]; the expander degree is serialized separately).
#[must_use]
pub fn topology_name(family: Family) -> &'static str {
    match family {
        Family::RandomRegular { .. } => "expander",
        other => other.name(),
    }
}

/// The protocols the scenario engine can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Single-source flooding (runtime-driven; the pure round-engine load).
    Flood,
    /// Fault-tolerant single-source flooding with acknowledgements,
    /// retransmission, and crash-recovery re-requests (runtime-driven and
    /// inbox-driven: its control flow genuinely depends on the fault plan).
    FloodFt,
    /// Classical GHS-style tree-merging leader election (arbitrary graphs).
    GhsLe,
    /// `QuantumLE` (complete graphs, `Õ(n^{1/3})` messages).
    QuantumLe,
    /// `QuantumQWLE` (diameter-2 graphs, `Õ(n^{2/3})` messages).
    QuantumQwLe,
    /// Classical KPP-style leader election for complete graphs (`Õ(√n)`).
    KppCompleteLe,
    /// Classical KPP-style random-walk leader election (mixing time `τ`).
    KppMixingLe,
    /// Classical CPR-style leader election for diameter-2 graphs (`Õ(n)`).
    CprDiameterTwoLe,
}

/// Every registered protocol, in registry order.
pub const ALL_PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Flood,
    ProtocolKind::FloodFt,
    ProtocolKind::GhsLe,
    ProtocolKind::QuantumLe,
    ProtocolKind::QuantumQwLe,
    ProtocolKind::KppCompleteLe,
    ProtocolKind::KppMixingLe,
    ProtocolKind::CprDiameterTwoLe,
];

impl ProtocolKind {
    /// The spec-format name of this protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Flood => "flood",
            ProtocolKind::FloodFt => "flood-ft",
            ProtocolKind::GhsLe => "ghs-le",
            ProtocolKind::QuantumLe => "quantum-le",
            ProtocolKind::QuantumQwLe => "quantum-qw-le",
            ProtocolKind::KppCompleteLe => "kpp-complete-le",
            ProtocolKind::KppMixingLe => "kpp-mixing-le",
            ProtocolKind::CprDiameterTwoLe => "cpr-d2-le",
        }
    }

    /// Resolves a spec-format protocol name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL_PROTOCOLS.into_iter().find(|p| p.name() == name)
    }

    /// Runs one cell of this protocol on `graph` under `opts`, with a round
    /// budget of `max_rounds` for runtime-driven protocols.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the topology violates the protocol's
    /// requirements or the simulation hits a network error.
    pub fn run(
        self,
        graph: &Graph,
        seed: u64,
        opts: &RunOptions,
        max_rounds: u64,
    ) -> Result<CellOutcome, String> {
        match self {
            ProtocolKind::Flood => run_flood(
                graph,
                seed,
                opts,
                max_rounds,
                |v, _| Flood::new(v == 0),
                |p| p.has_token(),
            ),
            ProtocolKind::FloodFt => run_flood(
                graph,
                seed,
                opts,
                max_rounds,
                |v, d| FloodFt::new(v == 0, d),
                |p| p.has_token(),
            ),
            ProtocolKind::GhsLe => run_le(&GhsLe::new(), graph, seed, opts),
            ProtocolKind::QuantumLe => run_le(&QuantumLe::new(), graph, seed, opts),
            ProtocolKind::QuantumQwLe => run_le(&QuantumQwLe::new(), graph, seed, opts),
            ProtocolKind::KppCompleteLe => run_le(&KppCompleteLe::new(), graph, seed, opts),
            ProtocolKind::KppMixingLe => run_le(&KppMixingLe::new(), graph, seed, opts),
            ProtocolKind::CprDiameterTwoLe => run_le(&CprDiameterTwoLe::new(), graph, seed, opts),
        }
    }
}

/// What one scenario cell measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The network's raw counters (including fault counters).
    pub metrics: Metrics,
    /// The protocol's parallel round complexity (for `Flood`: rounds until
    /// halt or budget exhaustion).
    pub effective_rounds: u64,
    /// Whether the run solved its problem (for `Flood`: every non-crashed
    /// node received the token — genuinely false under partitioning faults).
    pub ok: bool,
    /// A short human-readable outcome description for the results table.
    pub detail: String,
    /// The round-stamped event trace (empty unless `opts.trace`).
    pub trace: Vec<TraceEvent>,
    /// The harvested telemetry sidecar (`None` unless `opts.telemetry`).
    /// Its wall-clock half is non-deterministic by nature and never enters
    /// the results table, the serialized trace, or replay comparison.
    pub telemetry: Option<TelemetryReport>,
}

fn run_flood<P: NodeProgram>(
    graph: &Graph,
    seed: u64,
    opts: &RunOptions,
    max_rounds: u64,
    init: impl FnMut(usize, usize) -> P,
    covered: impl Fn(&P) -> bool,
) -> Result<CellOutcome, String> {
    let mut runtime = SyncRuntime::with_network(opts.network(graph.clone(), seed), init);
    let rounds = runtime
        .run_until_halt(max_rounds)
        .map_err(|e| e.to_string())?;
    let trace = runtime.take_trace();
    let telemetry = runtime.take_telemetry();
    let (net, programs) = (runtime.network(), runtime.programs());
    let n = programs.len();
    // `node_crashed` is the forward-looking view (also what the runtime's
    // halting check uses); derive both coverage numbers from it so the ok
    // flag and the detail arithmetic can never disagree (the metrics
    // column counts crash *events* observed at barriers, which can lag by
    // one round at termination).
    let crashed = (0..n).filter(|&v| net.node_crashed(v)).count();
    let reached = (0..n)
        .filter(|&v| covered(&programs[v]) && !net.node_crashed(v))
        .count();
    Ok(CellOutcome {
        metrics: runtime.metrics(),
        effective_rounds: rounds,
        ok: reached + crashed == n,
        detail: format!("reached {reached}/{} live nodes", n - crashed),
        trace,
        telemetry,
    })
}

fn run_le(
    protocol: &dyn LeaderElection,
    graph: &Graph,
    seed: u64,
    opts: &RunOptions,
) -> Result<CellOutcome, String> {
    let traced = protocol
        .run_with(graph, seed, opts)
        .map_err(|e| e.to_string())?;
    let leaders = traced.run.outcome.leaders().len();
    Ok(CellOutcome {
        metrics: traced.run.cost.metrics,
        effective_rounds: traced.run.cost.effective_rounds,
        ok: traced.run.succeeded(),
        detail: format!("{leaders} leader(s)"),
        trace: traced.trace,
        telemetry: traced.telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    #[test]
    fn protocol_names_round_trip() {
        for p in ALL_PROTOCOLS {
            assert_eq!(ProtocolKind::parse(p.name()), Some(p));
        }
        assert_eq!(ProtocolKind::parse("nonsense"), None);
    }

    #[test]
    fn topology_names_round_trip() {
        for family in [
            Family::Complete,
            Family::Star,
            Family::Cycle,
            Family::Torus,
            Family::Hypercube,
            Family::RandomRegular { degree: 6 },
        ] {
            let degree = match family {
                Family::RandomRegular { degree } => degree,
                _ => 0,
            };
            assert_eq!(parse_topology(topology_name(family), degree), Some(family));
        }
        assert_eq!(
            parse_topology("expander", 0),
            Some(Family::RandomRegular { degree: 4 })
        );
        assert_eq!(parse_topology("moebius", 0), None);
    }

    #[test]
    fn flood_cell_reports_coverage() {
        let graph = topology::cycle(16).unwrap();
        let out = ProtocolKind::Flood
            .run(&graph, 1, &RunOptions::default(), 1000)
            .unwrap();
        assert!(out.ok);
        // Every node broadcasts the token exactly once: 2 messages each.
        assert_eq!(out.metrics.classical_messages, 2 * 16);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn event_cell_under_sync_scheduler_matches_round_cell() {
        use congest_net::{ExecMode, SchedulerSpec};
        let graph = topology::cycle(16).unwrap();
        let round = ProtocolKind::Flood
            .run(&graph, 1, &RunOptions::default(), 1000)
            .unwrap();
        let opts = RunOptions {
            mode: ExecMode::Event(SchedulerSpec::synchronous()),
            ..RunOptions::default()
        };
        let event = ProtocolKind::Flood.run(&graph, 1, &opts, 1000).unwrap();
        assert_eq!(round, event);
        // A skewing scheduler genuinely changes the schedule.
        let opts = RunOptions {
            mode: ExecMode::Event(SchedulerSpec::worst_case(2)),
            ..RunOptions::default()
        };
        let skewed = ProtocolKind::Flood.run(&graph, 1, &opts, 1000).unwrap();
        assert!(skewed.metrics.scheduled_messages > 0);
        assert!(skewed.effective_rounds > round.effective_rounds);
        assert!(skewed.ok);
    }

    #[test]
    fn le_cell_runs_ghs() {
        let graph = topology::cycle(12).unwrap();
        let out = ProtocolKind::GhsLe
            .run(&graph, 1, &RunOptions::default(), 1000)
            .unwrap();
        assert!(out.ok);
        assert!(out.metrics.total_messages() > 0);
    }

    #[test]
    fn incompatible_topology_is_a_rendered_error() {
        let graph = topology::cycle(12).unwrap();
        let err = ProtocolKind::QuantumLe
            .run(&graph, 1, &RunOptions::default(), 1000)
            .unwrap_err();
        assert!(err.contains("complete"), "{err}");
    }
}
