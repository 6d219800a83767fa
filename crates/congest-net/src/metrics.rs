//! Message- and round-complexity metering.
//!
//! The paper's central performance measure is **message complexity**: the
//! total number of `O(log n)`-bit messages exchanged over the run of the
//! protocol. For quantum rounds the paper defines the message complexity of a
//! round as the maximum message count over the superposed deterministic
//! configurations (Section 3.1); the simulator realises this by running the
//! representative configuration of each quantum subroutine iteration and
//! charging its messages to the dedicated *quantum* meter while a
//! [`quantum scope`](crate::Network::quantum_scope) is active.

/// Cumulative counters for one protocol execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages sent outside any quantum scope (ordinary classical messages).
    pub classical_messages: u64,
    /// Messages charged inside quantum scopes (Grover / counting / walk
    /// iterations), following the max-over-superposed-configurations rule.
    pub quantum_messages: u64,
    /// Total rounds elapsed.
    pub rounds: u64,
    /// Largest number of messages sent in any single round.
    pub peak_messages_per_round: u64,
    /// Total bits sent (classical + quantum), for bandwidth-style analyses.
    pub total_bits: u64,
    /// Messages dropped by the fault-injection plane (always 0 without an
    /// installed [`FaultPlan`](crate::fault::FaultPlan); dropped messages are
    /// still counted as sent by the message counters above).
    pub dropped_messages: u64,
    /// Messages parked on the cross-round event queue by a link-latency
    /// fault (always 0 without a fault plan; delayed messages still count as
    /// sent, and as dropped too if a crash catches them before their due
    /// round).
    pub delayed_messages: u64,
    /// Messages parked on the event queue by the scheduler adversary of the
    /// event-driven execution mode (always 0 without an installed
    /// scheduler — and 0 under the synchronous scheduler, which never
    /// skews; scheduled messages still count as sent and are delivered at
    /// their due tick unless a crash catches them first).
    pub scheduled_messages: u64,
    /// Nodes whose crash round the execution has reached (monotone; counts
    /// crash *events*, so a crash-recovery node stays counted after it
    /// resumes; always 0 without a fault plan).
    pub crashed_nodes: u64,
}

impl Metrics {
    /// Creates a zeroed metrics record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages, classical plus quantum.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.classical_messages + self.quantum_messages
    }
}

/// A per-round snapshot, useful for plotting message traffic over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// The round index this report describes.
    pub round: u64,
    /// Messages delivered in this round.
    pub messages: u64,
    /// Bits delivered in this round.
    pub bits: u64,
    /// Whether any of the messages were charged to the quantum meter.
    pub quantum: bool,
    /// Messages dropped at this round's barrier by the fault plane.
    pub dropped: u64,
}

/// Internal accumulator used by the network; exposed read-only through
/// [`crate::Network::metrics`] and [`crate::Network::round_history`].
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsRecorder {
    pub(crate) totals: Metrics,
    pub(crate) history: Vec<RoundReport>,
    pub(crate) current_round_messages: u64,
    pub(crate) current_round_bits: u64,
    pub(crate) current_round_quantum: bool,
    pub(crate) current_round_dropped: u64,
    pub(crate) quantum_depth: u32,
}

impl MetricsRecorder {
    pub(crate) fn record_send(&mut self, bits: usize) {
        if self.quantum_depth > 0 {
            self.totals.quantum_messages += 1;
            self.current_round_quantum = true;
        } else {
            self.totals.classical_messages += 1;
        }
        self.totals.total_bits += bits as u64;
        self.current_round_messages += 1;
        self.current_round_bits += bits as u64;
    }

    /// Counts one message dropped by the fault plane at the current round's
    /// barrier.
    pub(crate) fn record_drop(&mut self) {
        self.totals.dropped_messages += 1;
        self.current_round_dropped += 1;
    }

    /// Counts one message parked on the cross-round event queue by a
    /// link-latency fault.
    pub(crate) fn record_delay(&mut self) {
        self.totals.delayed_messages += 1;
    }

    /// Counts one message parked on the event queue by the scheduler
    /// adversary of the event-driven execution mode.
    pub(crate) fn record_scheduled(&mut self) {
        self.totals.scheduled_messages += 1;
    }

    /// Closes the current round. A [`RoundReport`] is recorded only when
    /// `track_history` is set, so untracked runs never touch the history
    /// vector (part of the zero-allocation steady state of
    /// [`crate::Network::advance_round`]).
    pub(crate) fn finish_round(&mut self, track_history: bool) {
        self.totals.rounds += 1;
        self.totals.peak_messages_per_round = self
            .totals
            .peak_messages_per_round
            .max(self.current_round_messages);
        if track_history {
            self.history.push(RoundReport {
                round: self.totals.rounds,
                messages: self.current_round_messages,
                bits: self.current_round_bits,
                quantum: self.current_round_quantum,
                dropped: self.current_round_dropped,
            });
        }
        self.current_round_messages = 0;
        self.current_round_bits = 0;
        self.current_round_quantum = false;
        self.current_round_dropped = 0;
    }

    /// Records `rounds` rounds in which no messages were sent, without
    /// materialising one history entry per round. Used to account for the
    /// fixed-length synchronised phases of the quantum subroutines, whose
    /// round complexity is predetermined (Definition 4.1) even when a node
    /// finishes its own work early.
    pub(crate) fn record_idle_rounds(&mut self, rounds: u64) {
        self.totals.rounds += rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_classical_vs_quantum() {
        let mut rec = MetricsRecorder::default();
        rec.record_send(10);
        rec.quantum_depth = 1;
        rec.record_send(20);
        rec.record_send(20);
        rec.quantum_depth = 0;
        rec.finish_round(true);
        assert_eq!(rec.totals.classical_messages, 1);
        assert_eq!(rec.totals.quantum_messages, 2);
        assert_eq!(rec.totals.total_messages(), 3);
        assert_eq!(rec.totals.total_bits, 50);
        assert_eq!(rec.totals.rounds, 1);
        assert_eq!(rec.totals.peak_messages_per_round, 3);
        assert_eq!(rec.history.len(), 1);
        assert!(rec.history[0].quantum);
    }

    #[test]
    fn finish_round_resets_per_round_state() {
        let mut rec = MetricsRecorder::default();
        rec.record_send(8);
        rec.finish_round(true);
        rec.finish_round(true);
        assert_eq!(rec.totals.rounds, 2);
        assert_eq!(rec.history[1].messages, 0);
        assert!(!rec.history[1].quantum);
    }

    #[test]
    fn untracked_rounds_leave_history_empty() {
        let mut rec = MetricsRecorder::default();
        rec.record_send(8);
        rec.finish_round(false);
        assert_eq!(rec.totals.rounds, 1);
        assert!(rec.history.is_empty());
    }

    #[test]
    fn idle_rounds_accumulate_without_history() {
        let mut rec = MetricsRecorder::default();
        rec.record_idle_rounds(100);
        assert_eq!(rec.totals.rounds, 100);
        assert!(rec.history.is_empty());
    }

    #[test]
    fn record_drop_feeds_totals_and_history() {
        let mut rec = MetricsRecorder::default();
        rec.record_send(8);
        rec.record_drop();
        rec.record_drop();
        rec.finish_round(true);
        rec.finish_round(true);
        assert_eq!(rec.totals.dropped_messages, 2);
        assert_eq!(rec.history[0].dropped, 2);
        assert_eq!(rec.history[1].dropped, 0);
    }
}
