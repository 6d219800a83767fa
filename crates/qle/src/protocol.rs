//! Protocol traits: the public interface shared by the quantum protocols of
//! this crate and the classical baselines of `classical-baselines`.
//!
//! Every leader-election protocol is runnable two ways:
//!
//! * [`LeaderElection::run`] — the plain entry point: fault-free, no
//!   tracing. This is what the experiment harness and most tests use.
//! * [`LeaderElection::run_with`] — the configurable entry point the
//!   scenario engine drives: a [`RunOptions`] injects a [`FaultPlan`] or a
//!   scheduler adversary and turns on the network's round-stamped event
//!   trace, which comes back in the [`TracedRun`] alongside the ordinary
//!   report.
//!
//! `run` is a provided method delegating to `run_with` with default options,
//! so the two can never diverge.

use congest_net::{
    ExecMode, FaultPlan, Graph, Network, NetworkConfig, Payload, TelemetryReport, TraceEvent,
};

use crate::error::Error;
use crate::problems::{LeaderElectionOutcome, NodeStatus};
use crate::report::{AgreementRun, CostSummary, LeaderElectionRun};

/// Execution options threaded through [`LeaderElection::run_with`]: the
/// knobs a scenario applies to a protocol's internal network without the
/// protocol knowing where they came from.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Ignored: every round runs on the calling thread, in node order. The
    /// field stays so that callers which still set it keep building.
    pub shards: usize,
    /// Fault plan to install on the protocol's network, if any.
    ///
    /// How visible the faults are depends on how the protocol reads the
    /// network. Runtime-driven protocols (`NodeProgram`s) are fully
    /// inbox-driven: crashed nodes are skipped, recovery hooks fire, and
    /// control flow reacts to exactly what was delivered. Driver-based
    /// protocols see faults wherever they read inboxes instead of simulator
    /// state — the GHS baseline's cluster-probe phase is inbox-driven (so
    /// faults change which clusters merge), while the quantum subroutine
    /// drivers remain omniscient and surface faults as dropped/delayed
    /// traffic in the metrics and trace only (see ROADMAP for the
    /// remaining rewrites).
    pub fault_plan: Option<FaultPlan>,
    /// Whether to record the round-stamped event trace.
    pub trace: bool,
    /// Which execution mode drives the run: plain rounds (the default) or
    /// rounds under a scheduler adversary (see `congest_net`'s `event`
    /// module and `docs/EXECUTION_MODELS.md`).
    ///
    /// Event mode is nothing but the scheduler that
    /// [`network_with`](RunOptions::network_with) installs on the network:
    /// runtime-driven and driver-based protocols alike run unchanged while
    /// the barrier skews their delivery.
    ///
    /// ```
    /// use congest_net::{ExecMode, SchedulerSpec};
    /// use qle::RunOptions;
    ///
    /// let opts = RunOptions {
    ///     mode: ExecMode::Event(SchedulerSpec::latency_skew(3, 7)),
    ///     ..RunOptions::default()
    /// };
    /// assert_ne!(opts.mode, ExecMode::Round);
    /// ```
    pub mode: ExecMode,
    /// Whether to install the opt-in telemetry sidecar (phase spans and
    /// round histograms — see `congest_net::telemetry`). Off by
    /// default; strictly outside the determinism domain, so turning it on
    /// never changes metrics, history, the trace, or any PRNG stream. The
    /// harvested report comes back in [`TracedRun::telemetry`].
    pub telemetry: bool,
}

impl RunOptions {
    /// Builds the protocol's network with these options applied, starting
    /// from the standard seeded configuration.
    #[must_use]
    pub fn network<M: Payload>(&self, graph: Graph, seed: u64) -> Network<M> {
        self.network_with(graph, NetworkConfig::with_seed(seed))
    }

    /// Builds the protocol's network with these options applied on top of a
    /// protocol-specific `config` (e.g. a shared coin).
    #[must_use]
    pub fn network_with<M: Payload>(&self, graph: Graph, config: NetworkConfig) -> Network<M> {
        let mut net = Network::new(graph, config);
        if self.trace {
            net.enable_trace();
        }
        if self.telemetry {
            net.enable_telemetry();
        }
        if let Some(plan) = &self.fault_plan {
            net.set_fault_plan(plan);
        }
        if let ExecMode::Event(spec) = self.mode {
            net.set_scheduler(&spec);
        }
        net
    }
}

/// A protocol run together with the event trace its network recorded
/// (empty unless [`RunOptions::trace`] was set).
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// The ordinary run report.
    pub run: LeaderElectionRun,
    /// Round-stamped fault events, in the network's deterministic delivery
    /// order.
    pub trace: Vec<TraceEvent>,
    /// Harvested telemetry sidecar (`None` unless [`RunOptions::telemetry`]
    /// was set). Wall-clock fields live in the report's segregated
    /// [`congest_net::telemetry::WallTelemetry`] half and never participate
    /// in determinism or replay comparisons.
    pub telemetry: Option<TelemetryReport>,
}

impl TracedRun {
    /// The report of a finished leader-election run on `graph`: the final
    /// `statuses` and `effective_rounds` come from the driver, the metrics,
    /// trace and telemetry from the network it ran on.
    #[must_use]
    pub fn new<M: Payload>(
        protocol: &str,
        graph: &Graph,
        statuses: Vec<NodeStatus>,
        effective_rounds: u64,
        mut net: Network<M>,
    ) -> Self {
        TracedRun {
            run: LeaderElectionRun {
                protocol: protocol.to_string(),
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                outcome: LeaderElectionOutcome::new(statuses),
                cost: CostSummary {
                    metrics: net.metrics(),
                    effective_rounds,
                },
            },
            trace: net.take_trace(),
            telemetry: net.take_telemetry(),
        }
    }
}

/// A (randomized or quantum) implicit leader-election protocol.
///
/// `run_with` executes one simulation of the protocol over `graph`, with all
/// protocol randomness derived from `seed` and the execution environment
/// (faults, scheduler, tracing) taken from `opts`, and returns the outcome
/// together with the measured message and round complexity.
pub trait LeaderElection {
    /// A short human-readable protocol name used in reports and experiment
    /// tables.
    fn name(&self) -> &'static str;

    /// Runs the protocol once under the given execution options.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph violates the protocol's topology
    /// requirements, if the configuration is invalid, or if the simulation
    /// encounters a network error (which indicates a protocol bug).
    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error>;

    /// Runs the protocol once with default options (fault-free, no trace).
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](LeaderElection::run_with).
    fn run(&self, graph: &Graph, seed: u64) -> Result<LeaderElectionRun, Error> {
        Ok(self.run_with(graph, seed, &RunOptions::default())?.run)
    }
}

/// A (randomized or quantum) implicit agreement protocol.
pub trait Agreement {
    /// A short human-readable protocol name used in reports and experiment
    /// tables.
    fn name(&self) -> &'static str;

    /// Runs the protocol once with the given per-node binary inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs.len()` does not match the node count, if
    /// the graph violates the protocol's topology requirements, or if the
    /// simulation encounters a network error.
    fn run(&self, graph: &Graph, inputs: &[bool], seed: u64) -> Result<AgreementRun, Error>;
}
