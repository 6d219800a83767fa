//! The scheduler adversary of the event execution mode for partial synchrony.
//!
//! The round loop ([`SyncRuntime`](crate::runtime::SyncRuntime)) realises
//! the paper's Section 2.1 model: every message sent in round `r` is
//! delivered at the barrier of round `r`. Partially-synchronous and
//! asynchronous executions — where leader-election lower bounds actually
//! bite — need an *adversarial scheduler* that may hold a message back, as
//! long as it respects a declared delivery bound. This module provides that
//! adversary without touching the protocols or the round loop: a
//! [`SchedulerSpec`] installed on a network with
//! [`Network::set_scheduler`](crate::Network::set_scheduler) — a seeded
//! delivery-delay policy consulted at the barrier, in delivery order, for
//! every message the fault plane lets through. Event mode
//! ([`ExecMode::Event`]) is nothing more: the same round loop over a
//! network that carries a scheduler.
//!
//! # Execution model (the contract, in brief)
//!
//! * **Virtual time** is the round clock: one barrier = one tick. A message
//!   sent at time `t` and skewed by `δ ∈ [0, bound]` waits on the
//!   network's global event queue until the barrier at time `t + δ`
//!   (saturating at `u64::MAX`, a time no barrier reaches). The queue is a
//!   FIFO bucket per due time; link-latency faults park on the same
//!   buckets in the same delivery order, so fault delays and scheduler
//!   skews share one total order: by due time, then by parking order.
//! * **Determinism**: each scheduler draws from a dedicated PRNG stream
//!   (`plan seed ⊕ "SCHEDULE"` salt — like the fault plane's `ADV_DROP`
//!   stream), consulted only at the barrier in delivery order,
//!   which is send order. So identical `(spec, seed, scheduler)` produce
//!   byte-identical metrics, history, and trace.
//! * **Equivalence theorem**: under [`SchedulerKind::Synchronous`] the
//!   policy returns `δ = 0` for every message and consumes no randomness,
//!   so an event-mode run is the round-mode run with `δ = 0` and matches it
//!   *byte-for-byte* (pinned by the workspace `event_mode` suite).
//!
//! `docs/EXECUTION_MODELS.md` in the repository root is the authoritative
//! long-form statement of this contract, including the scheduler adversary
//! catalogue and the replay guarantee.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed salt for the dedicated scheduler stream, so installing a scheduler
/// never perturbs the node, drop, or adversary streams (the same convention
/// as the fault plane's `ADV_DROP` salt).
const SCHEDULER_STREAM_SALT: u64 = 0x5343_4845_4455_4c45; // "SCHEDULE"

/// The scheduler adversary families event mode ships.
///
/// Every policy is a deterministic function of the spec's seed and the
/// barrier delivery order; none observes payloads or protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Every message is delivered at the barrier of its send round
    /// (`δ = 0`, no randomness). Under this policy event mode is
    /// byte-identical to round mode — the equivalence theorem of
    /// `docs/EXECUTION_MODELS.md`.
    Synchronous,
    /// Delays cycle deterministically through `0..=bound` in delivery
    /// order, starting from a seeded initial phase drawn once from the
    /// scheduler stream.
    RoundRobin,
    /// Every message draws an independent uniform delay in `0..=bound`
    /// from the scheduler stream.
    LatencySkew,
    /// Every message is held for the full bound (`δ = bound`, no
    /// randomness) — the canonical bound-saturating partial-synchrony
    /// adversary.
    WorstCase,
}

impl SchedulerKind {
    /// All scheduler kinds, in catalogue order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Synchronous,
        SchedulerKind::RoundRobin,
        SchedulerKind::LatencySkew,
        SchedulerKind::WorstCase,
    ];

    /// The stable textual name used by the `.scn` grammar and the trace
    /// format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Synchronous => "synchronous",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::LatencySkew => "latency-skew",
            SchedulerKind::WorstCase => "worst-case",
        }
    }

    /// Parses a scheduler name as emitted by [`name`](SchedulerKind::name).
    #[must_use]
    pub fn parse(text: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == text)
    }
}

/// A complete scheduler configuration: which adversary, its delay bound,
/// and the seed of its dedicated PRNG stream.
///
/// Constructed with the per-kind constructors and installed on a network
/// with [`Network::set_scheduler`](crate::Network::set_scheduler) (which is
/// what [`ExecMode::Event`] amounts to); the scenario engine's `.scn`
/// grammar spells it `scheduler = ["name", bound, seed]`.
///
/// # Example
///
/// ```
/// use congest_net::{SchedulerKind, SchedulerSpec};
///
/// // An adversary that skews each message independently by 0..=3 rounds.
/// let skew = SchedulerSpec::latency_skew(3, 42);
/// assert_eq!(skew.kind, SchedulerKind::LatencySkew);
/// assert_eq!((skew.bound, skew.seed), (3, 42));
///
/// // The synchronous policy needs no bound and no seed: it is the round
/// // engine expressed as a (degenerate) scheduler.
/// let sync = SchedulerSpec::synchronous();
/// assert_eq!(sync.bound, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSpec {
    /// The adversary family.
    pub kind: SchedulerKind,
    /// The inclusive delay bound: every chosen delay is in `0..=bound`.
    pub bound: u64,
    /// Seed of the dedicated scheduler PRNG stream (salted, so it never
    /// collides with node or fault streams). Unused by the deterministic
    /// `synchronous` / `worst-case` policies but carried for a uniform
    /// `.scn` spelling.
    pub seed: u64,
}

impl SchedulerSpec {
    /// The synchronous scheduler: `δ = 0` for every message, no randomness.
    #[must_use]
    pub fn synchronous() -> Self {
        SchedulerSpec {
            kind: SchedulerKind::Synchronous,
            bound: 0,
            seed: 0,
        }
    }

    /// A round-robin adversary cycling delays through `0..=bound` from a
    /// seeded initial phase.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::round_robin(2, 7);
    /// assert_eq!(spec.bound, 2);
    /// ```
    #[must_use]
    pub fn round_robin(bound: u64, seed: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::RoundRobin,
            bound,
            seed,
        }
    }

    /// A latency-skew adversary drawing an independent uniform delay in
    /// `0..=bound` per message.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::latency_skew(4, 11);
    /// assert_eq!(spec.bound, 4);
    /// ```
    #[must_use]
    pub fn latency_skew(bound: u64, seed: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::LatencySkew,
            bound,
            seed,
        }
    }

    /// The worst-case adversary: every message is held for the full bound.
    ///
    /// ```
    /// use congest_net::SchedulerSpec;
    /// let spec = SchedulerSpec::worst_case(5);
    /// assert_eq!(spec.bound, 5);
    /// ```
    #[must_use]
    pub fn worst_case(bound: u64) -> Self {
        SchedulerSpec {
            kind: SchedulerKind::WorstCase,
            bound,
            seed: 0,
        }
    }
}

/// Which execution mode drives a protocol run: plain rounds, or rounds
/// whose deliveries a scheduler adversary skews.
///
/// This is the value `qle::RunOptions::mode` carries through the scenario
/// stack; [`ExecMode::Round`] is the default everywhere. Both modes run the
/// same round loop: event mode only installs the scheduler on the run's
/// network.
///
/// ```
/// use congest_net::programs::Flood;
/// use congest_net::{topology, Network, NetworkConfig, SchedulerSpec, SyncRuntime};
///
/// # fn main() -> Result<(), congest_net::Error> {
/// let mut net = Network::new(topology::cycle(8)?, NetworkConfig::with_seed(7));
/// net.set_scheduler(&SchedulerSpec::worst_case(2));
/// let mut runtime = SyncRuntime::with_network(net, |v, _| Flood::new(v == 0));
/// let time = runtime.run_until_halt(1_000)?;
/// assert!(runtime.all_halted());
/// // Holding every message for 2 extra ticks stretches the flood beyond
/// // the cycle's synchronous completion time.
/// assert!(time > 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Round-synchronous delivery, the paper's model.
    #[default]
    Round,
    /// Delivery skewed by the given scheduler adversary.
    Event(SchedulerSpec),
}

/// The live scheduler installed on a [`Network`](crate::Network): the policy plus its
/// dedicated PRNG stream, round-robin cursor, and virtual clock (advanced in
/// lockstep with the round/fault clocks).
#[derive(Debug)]
pub(crate) struct SchedulerState {
    kind: SchedulerKind,
    bound: u64,
    /// The dedicated salted stream; `Some` only for [`SchedulerKind::LatencySkew`]
    /// (the only policy that draws per message).
    rng: Option<StdRng>,
    /// Round-robin cursor; its initial value is the seeded phase.
    cursor: u64,
    /// The scheduler clock: the time whose sends the next barrier judges.
    /// Starts at 0 and advances with every barrier and skipped round,
    /// exactly like the fault clock.
    pub(crate) clock: u64,
    /// Sum of all chosen delays, saturating at `u64::MAX` (exposed for
    /// diagnostics/tests).
    pub(crate) total_skew: u64,
}

impl SchedulerState {
    pub(crate) fn new(spec: &SchedulerSpec) -> Self {
        let rng = (spec.kind == SchedulerKind::LatencySkew && spec.bound > 0)
            .then(|| StdRng::seed_from_u64(spec.seed ^ SCHEDULER_STREAM_SALT));
        let cursor = if spec.kind == SchedulerKind::RoundRobin && spec.bound > 0 {
            // The initial phase is the stream's single draw for this policy;
            // afterwards the cycle is purely arithmetic.
            let mut phase = StdRng::seed_from_u64(spec.seed ^ SCHEDULER_STREAM_SALT);
            phase.gen_range(0..=spec.bound)
        } else {
            0
        };
        SchedulerState {
            kind: spec.kind,
            bound: spec.bound,
            rng,
            cursor,
            clock: 0,
            total_skew: 0,
        }
    }

    /// The delivery delay for the next message, in barrier delivery order.
    /// `0` means "deliver at this barrier" — exactly the round-synchronous
    /// behaviour, which is why the synchronous policy (always 0, no RNG)
    /// reproduces the round engine byte-for-byte.
    pub(crate) fn delay(&mut self) -> u64 {
        let delay = match self.kind {
            SchedulerKind::Synchronous => 0,
            SchedulerKind::WorstCase => self.bound,
            SchedulerKind::RoundRobin => {
                if self.bound == 0 {
                    0
                } else {
                    // The period `bound + 1` is the whole `u64` range when
                    // the bound is `u64::MAX`: the cursor itself is the
                    // delay, and it wraps with that period.
                    let d = self
                        .bound
                        .checked_add(1)
                        .map_or(self.cursor, |period| self.cursor % period);
                    self.cursor = self.cursor.wrapping_add(1);
                    d
                }
            }
            SchedulerKind::LatencySkew => match self.rng.as_mut() {
                Some(rng) => rng.gen_range(0..=self.bound),
                None => 0,
            },
        };
        self.total_skew = self.total_skew.saturating_add(delay);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, TraceEvent};
    use crate::metrics::{Metrics, RoundReport};
    use crate::network::{Network, NetworkConfig};
    use crate::programs::Flood;
    use crate::runtime::SyncRuntime;
    use crate::topology;

    /// Floods a cycle from node 0, under `spec` when one is given.
    fn flood(n: usize, seed: u64, spec: Option<SchedulerSpec>) -> (u64, Metrics, Vec<RoundReport>) {
        let graph = topology::cycle(n).unwrap();
        let mut net = Network::new(graph, NetworkConfig::with_seed(seed).track_history(true));
        if let Some(spec) = spec {
            net.set_scheduler(&spec);
        }
        let mut rt = SyncRuntime::with_network(net, |v, _| Flood::new(v == 0));
        let rounds = rt.run_until_halt(10_000).unwrap();
        let history = rt.network().round_history().to_vec();
        (rounds, rt.metrics(), history)
    }

    #[test]
    fn synchronous_scheduler_matches_round_engine() {
        for seed in [1u64, 7, 23] {
            let round = flood(24, seed, None);
            let event = flood(24, seed, Some(SchedulerSpec::synchronous()));
            assert_eq!(event, round, "seed = {seed}");
            assert_eq!(event.1.scheduled_messages, 0);
        }
    }

    #[test]
    fn worst_case_stretches_completion_by_the_bound() {
        let round = flood(16, 3, None);
        for bound in [1u64, 2, 4] {
            let event = flood(16, 3, Some(SchedulerSpec::worst_case(bound)));
            // Every hop pays `bound` extra ticks, so completion stretches by
            // a factor of roughly `bound + 1`.
            assert!(
                event.0 >= round.0 + bound,
                "bound = {bound}: {} vs {}",
                event.0,
                round.0
            );
            assert!(event.1.scheduled_messages > 0);
            // Skew reorders delivery, never creates or destroys messages.
            assert_eq!(event.1.classical_messages, round.1.classical_messages);
        }
    }

    #[test]
    fn schedulers_replay_byte_identically() {
        for spec in [
            SchedulerSpec::round_robin(3, 9),
            SchedulerSpec::latency_skew(3, 9),
            SchedulerSpec::worst_case(3),
        ] {
            let a = flood(20, 5, Some(spec));
            let b = flood(20, 5, Some(spec));
            assert_eq!(a, b, "{spec:?}");
        }
    }

    #[test]
    fn scheduler_seed_changes_latency_skew_behaviour() {
        let a = flood(32, 5, Some(SchedulerSpec::latency_skew(5, 1)));
        let b = flood(32, 5, Some(SchedulerSpec::latency_skew(5, 2)));
        // Same message count either way; the schedule (and typically the
        // completion time or history) differs.
        assert_eq!(a.1.classical_messages, b.1.classical_messages);
        assert_ne!((a.0, a.2.clone()), (b.0, b.2.clone()));
    }

    #[test]
    fn round_robin_cycles_through_the_bound() {
        let mut state = SchedulerState::new(&SchedulerSpec::round_robin(2, 4));
        let first: Vec<u64> = (0..6).map(|_| state.delay()).collect();
        // Cycles with period bound + 1 = 3, from a seeded phase.
        assert_eq!(first[0..3], first[3..6]);
        assert!(first.iter().all(|&d| d <= 2));
    }

    #[test]
    fn latency_skew_respects_the_bound() {
        let mut state = SchedulerState::new(&SchedulerSpec::latency_skew(4, 8));
        for _ in 0..200 {
            assert!(state.delay() <= 4);
        }
        assert!(state.total_skew > 0);
    }

    #[test]
    fn scheduler_composes_with_fault_latency_without_double_skew() {
        let graph = topology::cycle(12).unwrap();
        let mut net = Network::new(graph, NetworkConfig::with_seed(3));
        net.set_scheduler(&SchedulerSpec::worst_case(1));
        net.set_fault_plan(&FaultPlan::new(0).link_latency(0, 1, 4));
        net.enable_trace();
        let mut rt = SyncRuntime::with_network(net, |v, _| Flood::new(v == 0));
        rt.run_until_halt(10_000).unwrap();
        let trace = rt.take_trace();
        let m = rt.metrics();
        // Fault-delayed messages keep their fault latency and are not also
        // scheduler-parked: the two counters tally disjoint messages.
        assert!(m.delayed_messages > 0);
        assert!(m.scheduled_messages > 0);
        let delayed_events = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageDelayed { .. }))
            .count() as u64;
        let scheduled_events = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::MessageScheduled { .. }))
            .count() as u64;
        assert_eq!(delayed_events, m.delayed_messages);
        assert_eq!(scheduled_events, m.scheduled_messages);
    }

    #[test]
    fn scheduler_kind_names_round_trip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("nonsense"), None);
    }
}
