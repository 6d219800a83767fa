//! Trace serialization and replay comparison.
//!
//! A trace file is the line-oriented, self-describing record of one matrix
//! run: for every cell (in deterministic cell order) a header, a `summary`
//! line carrying every [`Metrics`] counter, and one `event` line per
//! round-stamped fault event. [`serialize`] emits it, [`parse`] reads it
//! back, and [`compare`] re-verifies a fresh run against a baseline —
//! **byte-identical metrics and events**, which is what `experiments
//! --scenarios … --replay` asserts. Because fault decisions are made in the
//! network's delivery order, which is send order, a baseline recorded by
//! one run must replay cleanly in any other; CI replays the committed
//! matrix against its recorded trace.
//!
//! **What a trace deliberately omits:** wall-clock data. Neither
//! [`CellResult::wall_nanos`](crate::CellResult) nor the telemetry
//! sidecar's wall half is serialized, and [`compare`] never reads them —
//! only metrics, effective rounds, the ok verdict, and the event list
//! participate in replay. Profiled runs therefore replay cleanly against
//! unprofiled baselines and across machines of different speeds (pinned by
//! the workspace telemetry suite; see `docs/OBSERVABILITY.md`).

use congest_net::{DropCause, Metrics, TraceEvent};

use crate::engine::CellResult;

/// One cell's record as parsed back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// The cell identity line (scenario, protocol, topology, n, seed).
    pub id: String,
    /// The metrics summary.
    pub metrics: Metrics,
    /// The protocol's effective rounds.
    pub effective_rounds: u64,
    /// Whether the run solved its problem.
    pub ok: bool,
    /// The round-stamped events.
    pub events: Vec<TraceEvent>,
}

/// The version line every trace file starts with.
const HEADER: &str = "# sim-harness trace v5\n";

/// Serializes a matrix run as a trace file.
#[must_use]
pub fn serialize(results: &[CellResult]) -> String {
    use std::fmt::Write;
    let mut out = String::from(HEADER);
    for r in results {
        writeln!(out, "cell {}", r.cell.id()).unwrap();
        write_summary(
            &mut out,
            &r.outcome.metrics,
            r.outcome.effective_rounds,
            r.outcome.ok,
        );
        write_events(&mut out, &r.outcome.trace);
        out.push_str("end\n");
    }
    out
}

/// Writes the `summary` line for one cell.
fn write_summary(out: &mut String, m: &Metrics, effective_rounds: u64, ok: bool) {
    use std::fmt::Write;
    writeln!(
        out,
        "summary classical={} quantum={} rounds={} peak={} bits={} dropped={} delayed={} sched={} crashed={} effective={} ok={}",
        m.classical_messages,
        m.quantum_messages,
        m.rounds,
        m.peak_messages_per_round,
        m.total_bits,
        m.dropped_messages,
        m.delayed_messages,
        m.scheduled_messages,
        m.crashed_nodes,
        effective_rounds,
        ok
    )
    .unwrap();
}

/// Writes one `event` line per trace event.
fn write_events(out: &mut String, events: &[TraceEvent]) {
    use std::fmt::Write;
    for event in events {
        match *event {
            TraceEvent::NodeCrashed { round, node } => {
                writeln!(out, "event round={round} crash node={node}").unwrap();
            }
            TraceEvent::NodeRecovered { round, node } => {
                writeln!(out, "event round={round} recover node={node}").unwrap();
            }
            TraceEvent::MessageDropped {
                round,
                from,
                to,
                cause,
            } => {
                writeln!(
                    out,
                    "event round={round} drop from={from} to={to} cause={}",
                    cause.label()
                )
                .unwrap();
            }
            TraceEvent::MessageDelayed {
                round,
                from,
                to,
                delay,
            } => {
                writeln!(
                    out,
                    "event round={round} delay from={from} to={to} rounds={delay}"
                )
                .unwrap();
            }
            TraceEvent::MessageScheduled {
                round,
                from,
                to,
                delay,
            } => {
                writeln!(
                    out,
                    "event round={round} schedule from={from} to={to} delay={delay}"
                )
                .unwrap();
            }
        }
    }
}

/// Parses a trace file produced by [`serialize`].
///
/// # Errors
///
/// Returns a rendered error naming the offending line.
pub fn parse(text: &str) -> Result<Vec<BaselineCell>, String> {
    let mut cells: Vec<BaselineCell> = Vec::new();
    let mut current: Option<BaselineCell> = None;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            // The version marker is a comment, but an *unknown* version is
            // a real error: failing here names the actual problem instead
            // of surfacing it later as a missing summary key.
            if let Some(version) = line.strip_prefix("# sim-harness trace ") {
                if version != "v5" {
                    return Err(format!(
                        "trace line {line_no}: unsupported trace format {version} \
                         (this build reads v5; re-record the baseline)"
                    ));
                }
            }
            continue;
        }
        if let Some(id) = line.strip_prefix("cell ") {
            if current.is_some() {
                return Err(format!("trace line {line_no}: cell before previous end"));
            }
            current = Some(BaselineCell {
                id: id.to_string(),
                metrics: Metrics::default(),
                effective_rounds: 0,
                ok: false,
                events: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("summary ") {
            let cell = current
                .as_mut()
                .ok_or_else(|| format!("trace line {line_no}: summary outside a cell"))?;
            let (metrics, effective_rounds, ok) = parse_summary(rest, line_no)?;
            cell.metrics = metrics;
            cell.effective_rounds = effective_rounds;
            cell.ok = ok;
        } else if let Some(rest) = line.strip_prefix("event ") {
            let cell = current
                .as_mut()
                .ok_or_else(|| format!("trace line {line_no}: event outside a cell"))?;
            cell.events.push(parse_event(rest, line_no)?);
        } else if line == "end" {
            cells.push(
                current
                    .take()
                    .ok_or_else(|| format!("trace line {line_no}: end outside a cell"))?,
            );
        } else {
            return Err(format!(
                "trace line {line_no}: unrecognised line \"{line}\""
            ));
        }
    }
    if current.is_some() {
        return Err("trace ended inside a cell".into());
    }
    Ok(cells)
}

/// Parses the attribute list of a `summary` line into its metrics,
/// effective rounds, and ok verdict.
fn parse_summary(rest: &str, line_no: usize) -> Result<(Metrics, u64, bool), String> {
    let get = |key: &str| -> Result<u64, String> {
        field(rest, key, line_no)?
            .parse()
            .map_err(|_| format!("trace line {line_no}: bad {key}"))
    };
    let metrics = Metrics {
        classical_messages: get("classical")?,
        quantum_messages: get("quantum")?,
        rounds: get("rounds")?,
        peak_messages_per_round: get("peak")?,
        total_bits: get("bits")?,
        dropped_messages: get("dropped")?,
        delayed_messages: get("delayed")?,
        scheduled_messages: get("sched")?,
        crashed_nodes: get("crashed")?,
    };
    let effective_rounds = get("effective")?;
    let ok = field(rest, "ok", line_no)? == "true";
    Ok((metrics, effective_rounds, ok))
}

/// Parses the attribute list of an `event` line. The line is split into
/// tokens once, at ASCII whitespace (the writer separates tokens with
/// single spaces): the bare token names the event kind, and each
/// `key=value` token fills its attribute (the first occurrence wins), so
/// attributes may come in any order.
fn parse_event(rest: &str, line_no: usize) -> Result<TraceEvent, String> {
    let mut kind = None;
    let [mut round, mut from, mut to, mut node, mut cause, mut delay, mut rounds] = [None; 7];
    for token in rest.split_ascii_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            kind.get_or_insert(token);
            continue;
        };
        let slot = match key {
            "round" => &mut round,
            "from" => &mut from,
            "to" => &mut to,
            "node" => &mut node,
            "cause" => &mut cause,
            "delay" => &mut delay,
            "rounds" => &mut rounds,
            _ => continue,
        };
        slot.get_or_insert(value);
    }
    let round = attribute(round, "round", line_no)?;
    match kind {
        Some("schedule") => {
            let delay = attribute(delay, "delay", line_no)?;
            Ok(TraceEvent::MessageScheduled {
                round,
                from: attribute(from, "from", line_no)?,
                to: attribute(to, "to", line_no)?,
                delay,
            })
        }
        Some("crash") => Ok(TraceEvent::NodeCrashed {
            round,
            node: attribute(node, "node", line_no)?,
        }),
        Some("recover") => Ok(TraceEvent::NodeRecovered {
            round,
            node: attribute(node, "node", line_no)?,
        }),
        Some("drop") => {
            let cause = cause.ok_or_else(|| format!("trace line {line_no}: missing cause="))?;
            let cause = DropCause::parse(cause)
                .ok_or_else(|| format!("trace line {line_no}: unknown drop cause"))?;
            Ok(TraceEvent::MessageDropped {
                round,
                from: attribute(from, "from", line_no)?,
                to: attribute(to, "to", line_no)?,
                cause,
            })
        }
        Some("delay") => {
            let delay = attribute(rounds, "rounds", line_no)?;
            Ok(TraceEvent::MessageDelayed {
                round,
                from: attribute(from, "from", line_no)?,
                to: attribute(to, "to", line_no)?,
                delay,
            })
        }
        _ => Err(format!("trace line {line_no}: unknown event kind")),
    }
}

/// Parses the numeric value of attribute `key`, found by [`parse_event`].
fn attribute<T: std::str::FromStr>(
    value: Option<&str>,
    key: &str,
    line_no: usize,
) -> Result<T, String> {
    value
        .ok_or_else(|| format!("trace line {line_no}: missing {key}="))?
        .parse()
        .map_err(|_| format!("trace line {line_no}: bad {key}"))
}

/// Extracts `key=value` from a space-separated attribute line.
fn field<'a>(line: &'a str, key: &str, line_no: usize) -> Result<&'a str, String> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| format!("trace line {line_no}: missing {key}="))
}

/// Compares a fresh matrix run against a parsed baseline, returning one
/// message per mismatch (empty = byte-identical replay).
#[must_use]
pub fn compare(results: &[CellResult], baseline: &[BaselineCell]) -> Vec<String> {
    let mut mismatches = Vec::new();
    if results.len() != baseline.len() {
        mismatches.push(format!(
            "cell count differs: ran {}, baseline has {}",
            results.len(),
            baseline.len()
        ));
        return mismatches;
    }
    for (r, b) in results.iter().zip(baseline) {
        let id = r.cell.id();
        if id != b.id {
            mismatches.push(format!(
                "cell identity differs: ran \"{id}\", baseline \"{}\"",
                b.id
            ));
            continue;
        }
        if r.outcome.metrics != b.metrics {
            mismatches.push(format!(
                "{id}: metrics differ (ran {:?}, baseline {:?})",
                r.outcome.metrics, b.metrics
            ));
        }
        if r.outcome.effective_rounds != b.effective_rounds {
            mismatches.push(format!(
                "{id}: effective rounds differ ({} vs {})",
                r.outcome.effective_rounds, b.effective_rounds
            ));
        }
        if r.outcome.ok != b.ok {
            mismatches.push(format!("{id}: ok flag differs"));
        }
        if r.outcome.trace != b.events {
            mismatches.push(format!(
                "{id}: trace differs ({} events vs {})",
                r.outcome.trace.len(),
                b.events.len()
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_matrix;
    use crate::registry::ProtocolKind;
    use crate::spec::ScenarioSpec;
    use congest_net::topology::Family;
    use congest_net::FaultPlan;

    fn faulty_results() -> Vec<CellResult> {
        let specs = vec![
            ScenarioSpec::new("flood-cycle-faulty", Family::Cycle, ProtocolKind::FloodFt)
                .sizes([24])
                .seeds([1, 2])
                .faults(
                    FaultPlan::new(5)
                        .drop_probability(0.1)
                        .link_latency(5, 6, 2)
                        .crash(3, 2)
                        .crash_recover(9, 1, 12),
                ),
            ScenarioSpec::new("ft-cycle-adversarial", Family::Cycle, ProtocolKind::FloodFt)
                .sizes([16])
                .seeds([1])
                .max_rounds(400)
                .faults(FaultPlan::new(21).adversarial_drops(1)),
        ];
        run_matrix(&specs).unwrap()
    }

    #[test]
    fn serialize_parse_round_trips() {
        let results = faulty_results();
        let text = serialize(&results);
        let baseline = parse(&text).unwrap();
        assert_eq!(baseline.len(), results.len());
        assert!(compare(&results, &baseline).is_empty());
        // The trace genuinely recorded every event kind the extended fault
        // model can emit, so the round-trip covers them all.
        let events: Vec<TraceEvent> = results
            .iter()
            .flat_map(|r| r.outcome.trace.iter().copied())
            .collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeCrashed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeRecovered { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::MessageDropped { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::MessageDelayed { .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::MessageDropped {
                cause: DropCause::Adversarial,
                ..
            }
        )));
    }

    #[test]
    fn compare_flags_divergence() {
        let results = faulty_results();
        let mut baseline = parse(&serialize(&results)).unwrap();
        baseline[0].metrics.classical_messages += 1;
        let mismatches = compare(&results, &baseline);
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("metrics differ"));
        assert!(compare(&results, &baseline[1..]).len() == 1);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse("summary classical=1\n").is_err());
        assert!(parse("cell a\ncell b\n").is_err());
        assert!(parse("cell a\nsummary classical=1\n").is_err());
        assert!(parse("nonsense\n").is_err());
        assert!(parse("cell a\nevent round=1 warp node=2\nend\n").is_err());
        let event_error = |line: &str| parse(&format!("cell a\nevent {line}\nend\n")).unwrap_err();
        for (line, error) in [
            ("round=1 warp node=2", "unknown event kind"),
            ("round=1 node=2", "unknown event kind"),
            ("crash node=2", "missing round="),
            ("round=x crash node=2", "bad round"),
            ("round=1 crash nodes=2", "missing node="),
            ("round=1 drop from=1 to=2", "missing cause="),
            ("round=1 drop from=1 to=2 cause=zap", "unknown drop cause"),
            ("round=1 delay from=1 to=2 rounds=-3", "bad rounds"),
            ("round=1 schedule from=1 delay=2", "missing to="),
        ] {
            assert_eq!(
                event_error(line),
                format!("trace line 2: {error}"),
                "{line}"
            );
        }
    }

    #[test]
    fn event_attributes_parse_in_any_order() {
        let cause = DropCause::RandomDrop;
        for event in [
            TraceEvent::NodeCrashed { round: 3, node: 4 },
            TraceEvent::NodeRecovered { round: 5, node: 4 },
            TraceEvent::MessageDropped {
                round: 2,
                from: 1,
                to: 7,
                cause,
            },
            TraceEvent::MessageDelayed {
                round: 2,
                from: 1,
                to: 7,
                delay: 9,
            },
            TraceEvent::MessageScheduled {
                round: 1,
                from: 2,
                to: 3,
                delay: 4,
            },
        ] {
            let mut line = String::new();
            write_events(&mut line, &[event]);
            let tokens: Vec<&str> = line
                .strip_prefix("event ")
                .unwrap()
                .split_whitespace()
                .collect();
            assert_eq!(parse_event(&tokens.join(" "), 1), Ok(event));
            let reversed: Vec<&str> = tokens.iter().rev().copied().collect();
            assert_eq!(
                parse_event(&reversed.join(" "), 1),
                Ok(event),
                "{reversed:?}"
            );
        }
    }

    #[test]
    fn parse_names_a_version_mismatch() {
        let err = parse("# sim-harness trace v1\ncell a\nend\n").unwrap_err();
        assert!(err.contains("unsupported trace format v1"), "{err}");
        // A v3 baseline predates the scheduled counter and the `schedule`
        // event kind, and a v4 one carries a summary key and two event kinds
        // this build no longer writes: both must be re-recorded, not
        // half-parsed.
        for old in ["v3", "v4"] {
            let err = parse(&format!("# sim-harness trace {old}\ncell a\nend\n")).unwrap_err();
            assert!(err.contains("this build reads v5"), "{old}: {err}");
        }
        // The current version marker and unrelated comments pass.
        assert!(parse("# sim-harness trace v5\n# another comment\n").is_ok());
    }
}
