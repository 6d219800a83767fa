//! Opt-in observability sidecar: wall-clock spans, per-shard utilization,
//! and deterministic round histograms.
//!
//! The simulator's correctness story rests on a **determinism domain** —
//! [`Metrics`](crate::Metrics), round history, trace baselines, and every
//! PRNG stream are byte-identical for a given seed at every shard count.
//! Telemetry deliberately lives *outside* that domain: it is an
//! [`Option`]al sidecar installed with
//! [`Network::enable_telemetry`](crate::Network::enable_telemetry) (or
//! `RunOptions::telemetry` at the harness level), it is never consulted by
//! delivery, fault, or scheduler code, and nothing it records feeds back
//! into metrics, traces, or randomness. When it is off — the default —
//! the round barrier pays one predictable branch and the fused send paths
//! pay nothing at all (pinned by `tests/zero_alloc.rs`).
//!
//! A finished run yields a [`TelemetryReport`] split into two clearly
//! segregated halves:
//!
//! * [`DeterministicTelemetry`] — counters and [`Log2Histogram`]s derived
//!   only from barrier-merged quantities (messages per round, inbox sizes,
//!   event-queue depth, scheduler skew). These are byte-identical across
//!   shard counts, exactly like the metrics they summarise, and CI diffs
//!   them across a `CONGEST_SHARDS={1,4}` matrix.
//! * [`WallTelemetry`] — wall-clock phase spans (node-step, barrier-merge,
//!   fault-judge, scheduler-oracle), per-round wall times, per-shard busy
//!   time and message counts, and the adaptive-sequential switch count.
//!   These vary run to run and shard count to shard count by design and
//!   must never be compared across runs.
//!
//! See `docs/OBSERVABILITY.md` for the JSONL schema and the
//! `experiments --profile` walkthrough.

use std::time::Instant;

/// The wall-clock phases instrumented per round.
///
/// * `NodeStep` — executing node programs (sequential loop or sharded
///   dispatch including barrier wait), recorded by the runtimes.
/// * `BarrierMerge` — [`advance_round`](crate::Network::advance_round)
///   excluding the slow delivery path: inbox clearing, queue draining, and
///   shard-counter absorption.
/// * `FaultJudge` — the slow delivery path when a fault plan is installed
///   (event-queue drain, adversarial strikes, per-message verdicts;
///   includes any scheduler consultation interleaved with it).
/// * `SchedulerOracle` — the slow delivery path when only a scheduler
///   adversary is installed (event mode without faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Node program execution (runtime loop or sharded dispatch).
    NodeStep,
    /// The deterministic barrier merge in `advance_round`.
    BarrierMerge,
    /// The slow delivery path under an installed fault plan.
    FaultJudge,
    /// The slow delivery path under a scheduler adversary alone.
    SchedulerOracle,
}

impl Phase {
    /// Number of instrumented phases.
    pub const COUNT: usize = 4;

    /// Every phase, in fixed display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::NodeStep,
        Phase::BarrierMerge,
        Phase::FaultJudge,
        Phase::SchedulerOracle,
    ];

    /// Stable snake_case name used in the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::NodeStep => "node_step",
            Phase::BarrierMerge => "barrier_merge",
            Phase::FaultJudge => "fault_judge",
            Phase::SchedulerOracle => "scheduler_oracle",
        }
    }

    /// Index into the per-phase accumulator arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::NodeStep => 0,
            Phase::BarrierMerge => 1,
            Phase::FaultJudge => 2,
            Phase::SchedulerOracle => 3,
        }
    }
}

/// A deterministic base-2 logarithmic histogram over `u64` samples.
///
/// Bucket 0 counts samples equal to 0; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. Recording is a leading-zeros computation and one
/// array increment — no allocation, no floating point — and the bucket
/// counts are plain sums of barrier-merged quantities, so histograms
/// recorded at different shard counts are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 65] }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// The bucket counts up to (and including) the last non-empty bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..last]
    }

    /// Renders the trimmed bucket counts as a JSON array (`"[12,3,0,1]"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push(']');
        out
    }
}

/// The shard-invariant half of a [`TelemetryReport`]: counters and
/// histograms derived only from barrier-merged quantities. For a fixed
/// `(graph, seed, protocol)` these fields — and their
/// [`deterministic_jsonl`](TelemetryReport::deterministic_jsonl)
/// rendering — are byte-identical at every shard count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeterministicTelemetry {
    /// Barriers observed (rounds actually executed; excludes
    /// [`skip_rounds`](crate::Network::skip_rounds) jumps, which run no
    /// barrier).
    pub rounds: u64,
    /// Total messages sent over the run (classical + quantum), mirroring
    /// [`Metrics::total_messages`](crate::Metrics::total_messages).
    pub messages: u64,
    /// Messages sent per round (sampled once per barrier, after the
    /// deterministic shard-counter merge).
    pub messages_per_round: Log2Histogram,
    /// Sizes of the non-empty inboxes populated at each barrier.
    pub inbox_sizes: Log2Histogram,
    /// Messages parked on the cross-round event queue at each barrier
    /// (always bucket 0 without latency faults or a scheduler adversary).
    /// The field and its JSON key keep the name `heap_depth`.
    pub heap_depth: Log2Histogram,
    /// Scheduler skew (ticks of delay imposed) added per barrier; empty
    /// unless a scheduler adversary is installed.
    pub skew_per_round: Log2Histogram,
}

/// The wall-clock / shard-topology half of a [`TelemetryReport`]. Nothing
/// here is comparable across runs or shard counts: wall times depend on
/// the machine and per-shard fields depend on the shard count. Replay and
/// shard-invariance checks must ignore this struct entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallTelemetry {
    /// Wall-clock nanoseconds from telemetry installation to harvest.
    pub total_nanos: u64,
    /// Per-round wall-time samples (one per barrier, measuring the full
    /// inter-barrier interval: node work plus merge).
    pub round_nanos: Vec<u64>,
    /// Cumulative nanoseconds per [`Phase`], indexed by [`Phase::index`].
    pub phase_nanos: [u64; Phase::COUNT],
    /// Rounds contributing to each phase, indexed by [`Phase::index`].
    pub phase_rounds: [u64; Phase::COUNT],
    /// Resolved shard count `k` of the run.
    pub shard_count: usize,
    /// Messages sent through each shard's outbox queue (sharded rounds
    /// only; length `k`).
    pub shard_messages: Vec<u64>,
    /// Wall-clock nanoseconds each worker shard spent executing its slice
    /// of sharded rounds (length `k`; zero when rounds ran sequentially).
    pub shard_busy_nanos: Vec<u64>,
    /// Messages sent through the sequential network handle: driver-based
    /// protocols, `k = 1` rounds, and adaptive-sequential rounds.
    pub sequential_messages: u64,
    /// Rounds the adaptive scheduler ran sequentially despite `shards > 1`
    /// (see [`ADAPTIVE_SEQUENTIAL_THRESHOLD`](crate::runtime::ADAPTIVE_SEQUENTIAL_THRESHOLD)).
    pub adaptive_sequential_rounds: u64,
    /// Peak heap bytes observed by an external allocator tracker, when one
    /// was attached (the workspace test-support tracker reports this);
    /// `None` when untracked.
    pub peak_bytes: Option<u64>,
}

/// The harvest of one instrumented run, split into the shard-invariant
/// deterministic half and the wall-clock sidecar half. Produced by
/// [`Network::take_telemetry`](crate::Network::take_telemetry) and the
/// runtimes' `take_telemetry` wrappers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Shard-invariant counters and histograms.
    pub deterministic: DeterministicTelemetry,
    /// Wall-clock spans and shard-count-dependent counters.
    pub wall: WallTelemetry,
}

impl TelemetryReport {
    /// `(p50, p95, max)` of the per-round wall-time samples, in
    /// nanoseconds (all zero when no rounds ran).
    #[must_use]
    pub fn round_wall_percentiles(&self) -> (u64, u64, u64) {
        let mut sorted = self.wall.round_nanos.clone();
        if sorted.is_empty() {
            return (0, 0, 0);
        }
        sorted.sort_unstable();
        let pick = |p: usize| sorted[(sorted.len() - 1) * p / 100];
        (pick(50), pick(95), sorted[sorted.len() - 1])
    }

    /// Shard imbalance factor: the busiest shard's load divided by the
    /// mean shard load, preferring busy-time when any was recorded and
    /// falling back to per-shard message counts. `1.0` for sequential runs
    /// or when nothing was recorded (perfectly balanced by definition).
    #[must_use]
    pub fn shard_imbalance(&self) -> f64 {
        let pick = |values: &[u64]| -> Option<f64> {
            let total: u64 = values.iter().sum();
            if values.len() < 2 || total == 0 {
                return None;
            }
            let max = *values.iter().max().expect("non-empty") as f64;
            let mean = total as f64 / values.len() as f64;
            Some(max / mean)
        };
        pick(&self.wall.shard_busy_nanos)
            .or_else(|| pick(&self.wall.shard_messages))
            .unwrap_or(1.0)
    }

    /// Renders the full report as one JSONL record labelled `label`
    /// (conventionally the scenario cell id). The `"deterministic"` object
    /// is byte-identical across shard counts; everything under `"wall"` is
    /// the machine- and shard-count-dependent sidecar.
    #[must_use]
    pub fn to_jsonl(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"cell\":\"{}\",\"version\":1,{},\"wall\":{{\"total_nanos\":{}",
            json_escape(label),
            self.deterministic_object(),
            self.wall.total_nanos
        )
        .unwrap();
        let (p50, p95, max) = self.round_wall_percentiles();
        write!(
            out,
            ",\"round_nanos\":{{\"p50\":{p50},\"p95\":{p95},\"max\":{max},\"samples\":{}}}",
            self.wall.round_nanos.len()
        )
        .unwrap();
        out.push_str(",\"phases\":{");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{}\":{{\"nanos\":{},\"rounds\":{}}}",
                phase.name(),
                self.wall.phase_nanos[phase.index()],
                self.wall.phase_rounds[phase.index()]
            )
            .unwrap();
        }
        write!(
            out,
            "}},\"shards\":{{\"count\":{},\"messages\":{},\"busy_nanos\":{},\
             \"sequential_messages\":{},\"adaptive_sequential_rounds\":{},\"imbalance\":{:.3}}}",
            self.wall.shard_count,
            json_u64_array(&self.wall.shard_messages),
            json_u64_array(&self.wall.shard_busy_nanos),
            self.wall.sequential_messages,
            self.wall.adaptive_sequential_rounds,
            self.shard_imbalance()
        )
        .unwrap();
        match self.wall.peak_bytes {
            Some(bytes) => write!(out, ",\"peak_bytes\":{bytes}}}}}").unwrap(),
            None => out.push_str(",\"peak_bytes\":null}}"),
        }
        out
    }

    /// Renders only the label and the deterministic half as one JSONL
    /// record — the shard-invariant projection CI diffs across a
    /// `CONGEST_SHARDS={1,4}` matrix.
    #[must_use]
    pub fn deterministic_jsonl(&self, label: &str) -> String {
        format!(
            "{{\"cell\":\"{}\",{}}}",
            json_escape(label),
            self.deterministic_object()
        )
    }

    /// The `"deterministic":{…}` JSON fragment shared by both renderings.
    fn deterministic_object(&self) -> String {
        let d = &self.deterministic;
        format!(
            "\"deterministic\":{{\"rounds\":{},\"messages\":{},\"messages_per_round\":{},\
             \"inbox_sizes\":{},\"heap_depth\":{},\"skew_per_round\":{}}}",
            d.rounds,
            d.messages,
            d.messages_per_round.to_json(),
            d.inbox_sizes.to_json(),
            d.heap_depth.to_json(),
            d.skew_per_round.to_json()
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a `u64` slice as a JSON array.
fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Saturating nanoseconds since `start` (a run would need to exceed ~584
/// years to saturate).
pub(crate) fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The live accumulator installed on a [`Network`](crate::Network) by
/// `enable_telemetry`. Crate-internal: the runtimes feed it phase spans and
/// shard busy-times, the network feeds it barrier observations, and
/// [`finish`](TelemetrySink::finish) converts it into the public
/// [`TelemetryReport`].
#[derive(Debug)]
pub(crate) struct TelemetrySink {
    started: Instant,
    round_started: Instant,
    last_skew_total: u64,
    det: DeterministicTelemetry,
    phase_nanos: [u64; Phase::COUNT],
    phase_rounds: [u64; Phase::COUNT],
    round_nanos: Vec<u64>,
    shard_messages: Vec<u64>,
    shard_busy_nanos: Vec<u64>,
}

impl TelemetrySink {
    /// A fresh sink for a network resolved to `shards` worker shards.
    pub(crate) fn new(shards: usize) -> Self {
        let now = Instant::now();
        TelemetrySink {
            started: now,
            round_started: now,
            last_skew_total: 0,
            det: DeterministicTelemetry::default(),
            phase_nanos: [0; Phase::COUNT],
            phase_rounds: [0; Phase::COUNT],
            round_nanos: Vec::new(),
            shard_messages: vec![0; shards],
            shard_busy_nanos: vec![0; shards],
        }
    }

    /// Accumulates `nanos` of wall time under `phase`.
    pub(crate) fn record_phase(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()] += nanos;
        self.phase_rounds[phase.index()] += 1;
    }

    /// Accumulates `messages` sent through shard `shard`'s outbox queue
    /// this round (read from the shard counters before the barrier absorbs
    /// them).
    pub(crate) fn record_shard_messages(&mut self, shard: usize, messages: u64) {
        self.shard_messages[shard] += messages;
    }

    /// Accumulates `nanos` of worker busy time for shard `shard`.
    pub(crate) fn record_shard_busy(&mut self, shard: usize, nanos: u64) {
        self.shard_busy_nanos[shard] += nanos;
    }

    /// Records one non-empty inbox of `len` messages populated at the
    /// current barrier.
    pub(crate) fn record_inbox_size(&mut self, len: u64) {
        self.det.inbox_sizes.record(len);
    }

    /// Closes one barrier: samples the deterministic histograms and the
    /// wall-clock spans. `slow_phase` names where the slow delivery path's
    /// `slow_nanos` belong (`None` when the fast path ran).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_barrier(
        &mut self,
        messages_this_round: u64,
        queue_depth: u64,
        skew_total: Option<u64>,
        barrier_nanos: u64,
        slow_nanos: u64,
        slow_phase: Option<Phase>,
    ) {
        self.det.rounds += 1;
        self.det.messages_per_round.record(messages_this_round);
        self.det.heap_depth.record(queue_depth);
        if let Some(total) = skew_total {
            self.det.skew_per_round.record(total - self.last_skew_total);
            self.last_skew_total = total;
        }
        self.record_phase(
            Phase::BarrierMerge,
            barrier_nanos.saturating_sub(slow_nanos),
        );
        if let Some(phase) = slow_phase {
            self.record_phase(phase, slow_nanos);
        }
        let now = Instant::now();
        self.round_nanos
            .push(elapsed_nanos_between(self.round_started, now));
        self.round_started = now;
    }

    /// Converts the sink into a [`TelemetryReport`]; `messages` is the
    /// final total-message count from the metrics recorder.
    pub(crate) fn finish(mut self, messages: u64) -> TelemetryReport {
        self.det.messages = messages;
        let shard_total: u64 = self.shard_messages.iter().sum();
        TelemetryReport {
            wall: WallTelemetry {
                total_nanos: elapsed_nanos(self.started),
                round_nanos: self.round_nanos,
                phase_nanos: self.phase_nanos,
                phase_rounds: self.phase_rounds,
                shard_count: self.shard_messages.len(),
                sequential_messages: messages.saturating_sub(shard_total),
                shard_messages: self.shard_messages,
                shard_busy_nanos: self.shard_busy_nanos,
                adaptive_sequential_rounds: 0,
                peak_bytes: None,
            },
            deterministic: self.det,
        }
    }
}

/// Saturating nanoseconds between two instants.
fn elapsed_nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_histogram_buckets_powers_of_two() {
        let mut h = Log2Histogram::new();
        assert!(h.is_empty());
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.total(), 9);
        let counts = h.counts();
        assert_eq!(counts[0], 1); // 0
        assert_eq!(counts[1], 1); // 1
        assert_eq!(counts[2], 2); // 2, 3
        assert_eq!(counts[3], 2); // 4, 7
        assert_eq!(counts[4], 1); // 8
        assert_eq!(counts[11], 1); // 1024
        assert_eq!(counts[64], 1); // u64::MAX
        assert_eq!(counts.len(), 65);
    }

    #[test]
    fn log2_histogram_json_trims_trailing_zeros() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(5);
        assert_eq!(h.to_json(), "[1,0,0,1]");
        assert_eq!(Log2Histogram::new().to_json(), "[]");
    }

    #[test]
    fn percentiles_and_imbalance_handle_empty_reports() {
        let report = TelemetryReport::default();
        assert_eq!(report.round_wall_percentiles(), (0, 0, 0));
        assert!((report.shard_imbalance() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn imbalance_prefers_busy_time() {
        let mut report = TelemetryReport::default();
        report.wall.shard_busy_nanos = vec![300, 100];
        report.wall.shard_messages = vec![1, 1];
        // max 300 / mean 200 = 1.5 from busy time, not 1.0 from messages.
        assert!((report.shard_imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn jsonl_segregates_deterministic_and_wall_fields() {
        let mut sink = TelemetrySink::new(2);
        sink.record_shard_messages(0, 3);
        sink.record_shard_busy(1, 42);
        sink.record_inbox_size(2);
        sink.record_phase(Phase::NodeStep, 10);
        sink.finish_barrier(5, 0, Some(4), 100, 60, Some(Phase::SchedulerOracle));
        let report = sink.finish(8);
        let line = report.to_jsonl("cell a");
        assert!(line.starts_with("{\"cell\":\"cell a\",\"version\":1,\"deterministic\":{"));
        assert!(line.contains("\"wall\":{"));
        assert!(line.contains("\"node_step\":{\"nanos\":10,\"rounds\":1}"));
        assert!(line.contains("\"scheduler_oracle\":{\"nanos\":60,\"rounds\":1}"));
        assert!(line.contains("\"sequential_messages\":5"));
        assert!(line.contains("\"peak_bytes\":null"));
        // The deterministic projection is a strict substring-by-schema of
        // the full record and mentions no wall field.
        let det = report.deterministic_jsonl("cell a");
        assert!(det.contains("\"messages_per_round\":[0,0,0,1]"));
        assert!(det.contains("\"skew_per_round\":[0,0,0,1]"));
        assert!(!det.contains("nanos"));
        assert_eq!(report.deterministic.messages, 8);
        assert_eq!(report.wall.sequential_messages, 5);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
