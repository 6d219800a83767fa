//! Declarative scenario specifications: the typed builder and the TOML-ish
//! text format.
//!
//! A [`ScenarioSpec`] names one `(topology family, protocol)` pair plus the
//! parameter ranges to sweep (sizes and seeds), a round budget, an
//! execution mode, and a [`FaultPlan`]. A spec file holds any number of
//! scenarios:
//!
//! ```text
//! [scenario]
//! name = "flood-cycle-drop"
//! topology = "cycle"
//! protocol = "flood"
//! sizes = [32, 64]
//! seeds = [1, 2]
//! max_rounds = 10000
//! mode = "event"        # optional; "round" (default) or "event"
//! scheduler = ["latency-skew", 3, 7]   # [name, bound, seed]; event mode only
//!
//! [faults]
//! seed = 9
//! drop = 0.05
//! outage = [0, 1, 2, 10]   # link 0-1 down during rounds [2, 10)
//! latency = [4, 5, 3]      # link 4-5 delivers 3 rounds late
//! crash = [3, 4]           # node 3 crashes at round 4, for good
//! recover = [6, 2, 9]      # node 6 down during rounds [2, 9), then reboots
//! adversary = 2            # strike up to 2 frontier messages per round
//! ```
//!
//! `docs/SCENARIO_FORMAT.md` in the repository root documents the full
//! grammar with one annotated example per fault kind. It also documents
//! the inert `shards` key: `0` or `1` parse and change nothing, any other
//! value is an error.
//!
//! The format is a deliberate subset of TOML (sections, `key = value`,
//! quoted strings, numbers, flat integer lists, `#` comments) parsed with a
//! ~hundred-line hand-rolled parser so the workspace stays free of new
//! dependencies. [`ScenarioSpec::to_text`] emits the same format, and
//! parse ∘ emit is the identity (pinned by the round-trip tests).

use congest_net::topology::Family;
use congest_net::{ExecMode, FaultPlan, SchedulerKind, SchedulerSpec};

use crate::registry::{parse_topology, topology_name, ProtocolKind, ALL_PROTOCOLS};

/// One declarative scenario: a topology sweep × seed sweep of a protocol
/// under a fault plan.
///
/// ```
/// use congest_net::{topology::Family, FaultPlan};
/// use sim_harness::{ProtocolKind, ScenarioSpec};
///
/// let spec = ScenarioSpec::new("ft-chaos", Family::Cycle, ProtocolKind::FloodFt)
///     .sizes([32, 64])
///     .seeds([1, 2, 3])
///     .max_rounds(500)
///     .faults(
///         FaultPlan::new(13)
///             .link_latency(2, 3, 3)
///             .crash_recover(5, 1, 9),
///     );
/// // 2 sizes × 3 seeds = 6 cells.
/// assert_eq!(sim_harness::expand(&[spec.clone()]).len(), 6);
/// // The text format round-trips exactly.
/// let parsed = ScenarioSpec::parse_many(&spec.to_text()).unwrap();
/// assert_eq!(parsed, vec![spec]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (used in tables and trace headers).
    pub name: String,
    /// The topology family cells are generated from.
    pub topology: Family,
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Seeds to sweep (each seeds both the topology generator and the
    /// protocol run).
    pub seeds: Vec<u64>,
    /// Round budget for runtime-driven protocols.
    pub max_rounds: u64,
    /// The fault plan every cell of this scenario runs under (empty =
    /// fault-free).
    pub faults: FaultPlan,
    /// Which execution mode drives the cells: plain rounds (the default) or
    /// rounds under a scheduler adversary (see `docs/EXECUTION_MODELS.md`).
    pub mode: ExecMode,
}

impl ScenarioSpec {
    /// A scenario with one size (32), one seed (1), a generous round
    /// budget, and no faults; refine with the builder methods.
    #[must_use]
    pub fn new(name: impl Into<String>, topology: Family, protocol: ProtocolKind) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology,
            protocol,
            sizes: vec![32],
            seeds: vec![1],
            max_rounds: 100_000,
            faults: FaultPlan::default(),
            mode: ExecMode::Round,
        }
    }

    /// Sets the sizes to sweep.
    #[must_use]
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Sets the seeds to sweep.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the round budget for runtime-driven protocols.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the execution mode (round-synchronous by default).
    ///
    /// ```
    /// use congest_net::{topology::Family, ExecMode, SchedulerSpec};
    /// use sim_harness::{ProtocolKind, ScenarioSpec};
    ///
    /// let spec = ScenarioSpec::new("skewed", Family::Cycle, ProtocolKind::Flood)
    ///     .mode(ExecMode::Event(SchedulerSpec::worst_case(2)));
    /// assert!(spec.to_text().contains("mode = \"event\""));
    /// ```
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Serializes this scenario in the spec text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("[scenario]\n");
        writeln!(out, "name = \"{}\"", self.name).unwrap();
        writeln!(out, "topology = \"{}\"", topology_name(self.topology)).unwrap();
        if let Family::RandomRegular { degree } = self.topology {
            writeln!(out, "degree = {degree}").unwrap();
        }
        writeln!(out, "protocol = \"{}\"", self.protocol.name()).unwrap();
        writeln!(out, "sizes = {}", fmt_list(self.sizes.iter())).unwrap();
        writeln!(out, "seeds = {}", fmt_list(self.seeds.iter())).unwrap();
        writeln!(out, "max_rounds = {}", self.max_rounds).unwrap();
        if let ExecMode::Event(sched) = self.mode {
            writeln!(out, "mode = \"event\"").unwrap();
            writeln!(
                out,
                "scheduler = [\"{}\", {}, {}]",
                sched.kind.name(),
                sched.bound,
                sched.seed
            )
            .unwrap();
        }
        if !self.faults.is_empty() || self.faults.seed() != 0 {
            out.push_str("\n[faults]\n");
            write_fault_stanzas(&self.faults, &mut out);
        }
        out
    }

    /// Parses every scenario in `text` (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for malformed
    /// sections, keys, values, unknown topology/protocol names, a repeated
    /// single-valued key, or a scenario missing its required keys.
    pub fn parse_many(text: &str) -> Result<Vec<ScenarioSpec>, SpecError> {
        Parser::new(text).parse()
    }
}

/// Renders the `[faults]` section stanzas of `faults` into `out`, in the
/// plan's entry order (so emit ∘ parse is the identity).
fn write_fault_stanzas(faults: &FaultPlan, out: &mut String) {
    use std::fmt::Write;
    writeln!(out, "seed = {}", faults.seed()).unwrap();
    if faults.drop_rate() > 0.0 {
        writeln!(out, "drop = {}", faults.drop_rate()).unwrap();
    }
    for o in faults.outages() {
        writeln!(
            out,
            "outage = [{}, {}, {}, {}]",
            o.a, o.b, o.from_round, o.until_round
        )
        .unwrap();
    }
    for l in faults.latencies() {
        writeln!(out, "latency = [{}, {}, {}]", l.a, l.b, l.delay_rounds).unwrap();
    }
    for c in faults.crashes() {
        if c.recover_round == u64::MAX {
            writeln!(out, "crash = [{}, {}]", c.node, c.round).unwrap();
        } else {
            writeln!(
                out,
                "recover = [{}, {}, {}]",
                c.node, c.round, c.recover_round
            )
            .unwrap();
        }
    }
    if faults.adversarial_drops_per_round() > 0 {
        writeln!(out, "adversary = {}", faults.adversarial_drops_per_round()).unwrap();
    }
}

fn fmt_list<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    let body: Vec<String> = items.map(|x| x.to_string()).collect();
    format!("[{}]", body.join(", "))
}

/// A spec parse error, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A partially-assembled scenario while its sections are being read.
///
/// Every single-valued key is an `Option`, so a second line for it is
/// caught in its match arm (see [`set_once`]); the list-valued fault
/// entries are repeatable.
#[derive(Debug, Default)]
struct Draft {
    name: Option<String>,
    topology: Option<String>,
    degree: Option<usize>,
    protocol: Option<String>,
    sizes: Option<Vec<usize>>,
    seeds: Option<Vec<u64>>,
    /// The inert `shards` key (0 or 1), kept only so a repeat is caught.
    shards: Option<u64>,
    max_rounds: Option<u64>,
    fault_seed: Option<u64>,
    drop: Option<f64>,
    outages: Vec<[u64; 4]>,
    latencies: Vec<[u64; 3]>,
    /// Crash entries as `[node, round, recover_round]` in encounter order
    /// (`u64::MAX` = crash-stop), so emit ∘ parse preserves the plan's
    /// entry order exactly.
    crashes: Vec<[u64; 3]>,
    /// Adversarial frontier drops per round (absent or 0 = no adversary).
    adversary: Option<u64>,
    /// Raw `mode` value ("round" or "event"), validated at the key line.
    mode: Option<String>,
    /// Parsed `scheduler = [name, bound, seed]` stanza, validated at the
    /// key line; only legal together with `mode = "event"`.
    scheduler: Option<SchedulerSpec>,
    /// Line of the `[scenario]` header, for error reporting.
    line: usize,
}

impl Draft {
    fn finish(self) -> Result<ScenarioSpec, SpecError> {
        let err = |message: String| SpecError {
            line: self.line,
            message,
        };
        let name = self
            .name
            .ok_or_else(|| err("scenario is missing `name`".into()))?;
        let topology_name = self
            .topology
            .ok_or_else(|| err(format!("scenario \"{name}\" is missing `topology`")))?;
        // Checked before the registry sees it: `parse_topology` reads a zero
        // degree as "use the default".
        if self.degree == Some(0) {
            return Err(err(format!(
                "scenario \"{name}\": `degree` must be positive"
            )));
        }
        let topology = parse_topology(&topology_name, self.degree.unwrap_or(0))
            .ok_or_else(|| err(format!("unknown topology \"{topology_name}\"")))?;
        if self.degree.is_some() && !matches!(topology, Family::RandomRegular { .. }) {
            return Err(err(format!(
                "scenario \"{name}\": `degree` needs topology \"expander\" or \"random-regular\", not \"{topology_name}\""
            )));
        }
        let protocol_name = self
            .protocol
            .ok_or_else(|| err(format!("scenario \"{name}\" is missing `protocol`")))?;
        let protocol = ProtocolKind::parse(&protocol_name).ok_or_else(|| {
            // List the registry so growth is discoverable from the CLI.
            let known: Vec<&str> = ALL_PROTOCOLS.iter().map(|p| p.name()).collect();
            err(format!(
                "unknown protocol \"{protocol_name}\" (registered: {})",
                known.join(", ")
            ))
        })?;
        let mut faults =
            FaultPlan::new(self.fault_seed.unwrap_or(0)).drop_probability(self.drop.unwrap_or(0.0));
        for [a, b, from, until] in self.outages {
            faults = faults.link_outage(a as usize, b as usize, from, until);
        }
        for [a, b, delay] in self.latencies {
            faults = faults.link_latency(a as usize, b as usize, delay);
        }
        for [node, round, recover_round] in self.crashes {
            faults = if recover_round == u64::MAX {
                faults.crash(node as usize, round)
            } else {
                faults.crash_recover(node as usize, round, recover_round)
            };
        }
        if let Some(adversary) = self.adversary.filter(|&a| a > 0) {
            faults = faults.adversarial_drops(adversary);
        }
        let mut spec = ScenarioSpec::new(name, topology, protocol).faults(faults);
        // Absent keys fall back to the builder defaults; *explicitly* empty
        // or zero values are spec bugs and must not silently become
        // defaults (they would run cells the author excluded).
        if let Some(sizes) = self.sizes {
            if sizes.is_empty() {
                return Err(err(format!("scenario \"{}\": `sizes` is empty", spec.name)));
            }
            spec.sizes = sizes;
        }
        if let Some(seeds) = self.seeds {
            if seeds.is_empty() {
                return Err(err(format!("scenario \"{}\": `seeds` is empty", spec.name)));
            }
            spec.seeds = seeds;
        }
        match self.mode.as_deref() {
            // `mode = "event"` without a `scheduler` stanza runs under the
            // synchronous scheduler (reproducing round mode exactly).
            Some("event") => {
                spec.mode =
                    ExecMode::Event(self.scheduler.unwrap_or_else(SchedulerSpec::synchronous));
            }
            _ => {
                if self.scheduler.is_some() {
                    return Err(err(format!(
                        "scenario \"{}\": `scheduler` requires `mode = \"event\"`",
                        spec.name
                    )));
                }
            }
        }
        if let Some(max_rounds) = self.max_rounds {
            if max_rounds == 0 {
                return Err(err(format!(
                    "scenario \"{}\": `max_rounds` must be positive",
                    spec.name
                )));
            }
            spec.max_rounds = max_rounds;
        }
        Ok(spec)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Scenario,
    Faults,
}

struct Parser<'a> {
    text: &'a str,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text }
    }

    fn parse(self) -> Result<Vec<ScenarioSpec>, SpecError> {
        let mut specs = Vec::new();
        let mut draft: Option<Draft> = None;
        let mut section = Section::None;
        for (idx, raw) in self.text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| SpecError {
                line: line_no,
                message,
            };
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated section header".into()))?
                    .trim();
                match header {
                    "scenario" => {
                        if let Some(done) = draft.take() {
                            specs.push(done.finish()?);
                        }
                        draft = Some(Draft {
                            line: line_no,
                            ..Draft::default()
                        });
                        section = Section::Scenario;
                    }
                    "faults" | "scenario.faults" => {
                        if draft.is_none() {
                            return Err(err("[faults] outside a [scenario]".into()));
                        }
                        section = Section::Faults;
                    }
                    other => return Err(err(format!("unknown section [{other}]"))),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got \"{line}\"")))?;
            let (key, value) = (key.trim(), value.trim());
            let draft = draft
                .as_mut()
                .ok_or_else(|| err("key before the first [scenario] section".into()))?;
            match (section, key) {
                (Section::Scenario, "name") => {
                    let name = parse_string(value, line_no)?;
                    set_once(&mut draft.name, name, key, line_no)?;
                }
                (Section::Scenario, "topology") => {
                    let topology = parse_string(value, line_no)?;
                    set_once(&mut draft.topology, topology, key, line_no)?;
                }
                (Section::Scenario, "degree") => {
                    let degree = parse_int(value, line_no)? as usize;
                    set_once(&mut draft.degree, degree, key, line_no)?;
                }
                (Section::Scenario, "protocol") => {
                    let protocol = parse_string(value, line_no)?;
                    set_once(&mut draft.protocol, protocol, key, line_no)?;
                }
                (Section::Scenario, "sizes") => {
                    let sizes = parse_int_list(value, line_no)?
                        .into_iter()
                        .map(|x| x as usize)
                        .collect();
                    set_once(&mut draft.sizes, sizes, key, line_no)?;
                }
                (Section::Scenario, "seeds") => {
                    let seeds = parse_int_list(value, line_no)?;
                    set_once(&mut draft.seeds, seeds, key, line_no)?;
                }
                (Section::Scenario, "shards") => {
                    // Rounds always run on one thread; the key is still
                    // read so that specs naming 0 or 1 keep parsing.
                    let shards = parse_int(value, line_no)?;
                    set_once(&mut draft.shards, shards, key, line_no)?;
                    if shards > 1 {
                        return Err(err(format!(
                            "`shards` must be 0 or 1 (rounds run on one thread), got {shards}"
                        )));
                    }
                }
                (Section::Scenario, "max_rounds") => {
                    let max_rounds = parse_int(value, line_no)?;
                    set_once(&mut draft.max_rounds, max_rounds, key, line_no)?;
                }
                (Section::Scenario, "mode") => {
                    let mode = parse_string(value, line_no)?;
                    if mode != "round" && mode != "event" {
                        return Err(err(format!(
                            "unknown mode \"{mode}\" (expected \"round\" or \"event\")"
                        )));
                    }
                    set_once(&mut draft.mode, mode, key, line_no)?;
                }
                (Section::Scenario, "scheduler") => {
                    let scheduler = parse_scheduler(value, line_no)?;
                    set_once(&mut draft.scheduler, scheduler, key, line_no)?;
                }
                (Section::Faults, "seed") => {
                    let seed = parse_int(value, line_no)?;
                    set_once(&mut draft.fault_seed, seed, key, line_no)?;
                }
                (Section::Faults, "drop") => {
                    // `FaultPlan::drop_probability` clamps, so an out-of-range
                    // value would silently run as 0 or 1.
                    let drop = value
                        .parse::<f64>()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| SpecError {
                            line: line_no,
                            message: format!(
                                "drop probability must be a number in [0, 1], got \"{value}\""
                            ),
                        })?;
                    set_once(&mut draft.drop, drop, key, line_no)?;
                }
                (Section::Faults, "outage") => {
                    let xs = parse_int_list(value, line_no)?;
                    let [a, b, from, until] = xs[..].try_into().map_err(|_| SpecError {
                        line: line_no,
                        message: "outage needs [a, b, from_round, until_round]".into(),
                    })?;
                    if until <= from {
                        return Err(SpecError {
                            line: line_no,
                            message: "outage needs until_round > from_round".into(),
                        });
                    }
                    draft.outages.push([a, b, from, until]);
                }
                (Section::Faults, "latency") => {
                    let xs = parse_int_list(value, line_no)?;
                    let [a, b, delay] = xs[..].try_into().map_err(|_| SpecError {
                        line: line_no,
                        message: "latency needs [a, b, delay_rounds]".into(),
                    })?;
                    if delay == 0 {
                        return Err(SpecError {
                            line: line_no,
                            message: "latency delay must be positive".into(),
                        });
                    }
                    draft.latencies.push([a, b, delay]);
                }
                (Section::Faults, "crash") => {
                    let xs = parse_int_list(value, line_no)?;
                    let [node, round] = xs[..].try_into().map_err(|_| SpecError {
                        line: line_no,
                        message: "crash needs [node, round]".into(),
                    })?;
                    draft.crashes.push([node, round, u64::MAX]);
                }
                (Section::Faults, "recover") => {
                    let xs = parse_int_list(value, line_no)?;
                    let [node, round, until] = xs[..].try_into().map_err(|_| SpecError {
                        line: line_no,
                        message: "recover needs [node, round, recover_round]".into(),
                    })?;
                    if until <= round {
                        return Err(SpecError {
                            line: line_no,
                            message: "recover needs recover_round > round".into(),
                        });
                    }
                    draft.crashes.push([node, round, until]);
                }
                (Section::Faults, "adversary") => {
                    let adversary = parse_int(value, line_no)?;
                    set_once(&mut draft.adversary, adversary, key, line_no)?;
                }
                (_, other) => return Err(err(format!("unknown key \"{other}\""))),
            }
        }
        if let Some(done) = draft.take() {
            specs.push(done.finish()?);
        }
        Ok(specs)
    }
}

/// Stores the value of a single-valued key, rejecting a second line for it:
/// a repeat would otherwise silently override the first.
fn set_once<T>(slot: &mut Option<T>, value: T, key: &str, line: usize) -> Result<(), SpecError> {
    if slot.is_some() {
        return Err(SpecError {
            line,
            message: format!("duplicate key `{key}`"),
        });
    }
    *slot = Some(value);
    Ok(())
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, SpecError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| SpecError {
            line,
            message: format!("expected a quoted string, got {value}"),
        })
}

fn parse_int(value: &str, line: usize) -> Result<u64, SpecError> {
    value.parse().map_err(|_| SpecError {
        line,
        message: format!("expected an integer, got \"{value}\""),
    })
}

/// Parses the mixed `scheduler = ["name", bound, seed]` list.
fn parse_scheduler(value: &str, line: usize) -> Result<SchedulerSpec, SpecError> {
    let err = |message: String| SpecError { line, message };
    let body = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(format!("expected a [list], got \"{value}\"")))?;
    let parts: Vec<&str> = body.split(',').map(str::trim).collect();
    let [name, bound, seed]: [&str; 3] = parts[..]
        .try_into()
        .map_err(|_| err("scheduler needs [\"name\", bound, seed]".into()))?;
    let name = parse_string(name, line)?;
    let kind = SchedulerKind::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        err(format!(
            "unknown scheduler \"{name}\" (registered: {})",
            known.join(", ")
        ))
    })?;
    Ok(SchedulerSpec {
        kind,
        bound: parse_int(bound, line)?,
        seed: parse_int(seed, line)?,
    })
}

fn parse_int_list(value: &str, line: usize) -> Result<Vec<u64>, SpecError> {
    let body = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| SpecError {
            line,
            message: format!("expected a [list], got \"{value}\""),
        })?;
    body.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_int(s, line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec::new("flood-cycle-drop", Family::Cycle, ProtocolKind::Flood)
            .sizes([32, 64])
            .seeds([1, 2, 3])
            .max_rounds(10_000)
            .faults(
                FaultPlan::new(9)
                    .drop_probability(0.05)
                    .link_outage(0, 1, 2, 10)
                    .link_latency(4, 5, 3)
                    .crash(3, 4)
                    .crash_recover(6, 2, 9)
                    .adversarial_drops(2),
            )
    }

    #[test]
    fn to_text_parse_round_trips() {
        let spec = sample_spec();
        let text = spec.to_text();
        assert!(text.contains("latency = [4, 5, 3]"), "{text}");
        assert!(text.contains("recover = [6, 2, 9]"), "{text}");
        assert!(text.contains("adversary = 2"), "{text}");
        let parsed = ScenarioSpec::parse_many(&text).unwrap();
        assert_eq!(parsed, vec![spec]);
    }

    #[test]
    fn event_mode_round_trips_for_every_scheduler() {
        for sched in [
            SchedulerSpec::synchronous(),
            SchedulerSpec::round_robin(2, 5),
            SchedulerSpec::latency_skew(3, 7),
            SchedulerSpec::worst_case(4),
        ] {
            let spec = sample_spec().mode(ExecMode::Event(sched));
            let text = spec.to_text();
            assert!(text.contains("mode = \"event\""), "{text}");
            assert!(
                text.contains(&format!("scheduler = [\"{}\"", sched.kind.name())),
                "{text}"
            );
            let parsed = ScenarioSpec::parse_many(&text).unwrap();
            assert_eq!(parsed, vec![spec]);
        }
    }

    #[test]
    fn event_mode_without_scheduler_defaults_to_synchronous() {
        let text = "[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"flood\"\nmode = \"event\"\n";
        let spec = &ScenarioSpec::parse_many(text).unwrap()[0];
        assert_eq!(spec.mode, ExecMode::Event(SchedulerSpec::synchronous()));
        // An explicit `mode = "round"` is also accepted and is the default.
        let text = "[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"flood\"\nmode = \"round\"\n";
        let spec = &ScenarioSpec::parse_many(text).unwrap()[0];
        assert_eq!(spec.mode, ExecMode::Round);
    }

    #[test]
    fn malformed_mode_and_scheduler_stanzas_are_rejected() {
        let base = "[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"flood\"\n";
        for (stanza, needle) in [
            ("mode = \"async\"", "unknown mode \"async\""),
            (
                "mode = \"event\"\nscheduler = [\"chaos\", 1, 2]",
                "unknown scheduler \"chaos\"",
            ),
            (
                "mode = \"event\"\nscheduler = [\"worst-case\", 2]",
                "scheduler needs",
            ),
            (
                "scheduler = [\"worst-case\", 2, 0]",
                "`scheduler` requires `mode = \"event\"`",
            ),
        ] {
            let err = ScenarioSpec::parse_many(&format!("{base}{stanza}\n")).unwrap_err();
            assert!(err.message.contains(needle), "{stanza}: {err}");
        }
        // The unknown-scheduler error lists the registry.
        let err = ScenarioSpec::parse_many(&format!(
            "{base}mode = \"event\"\nscheduler = [\"chaos\", 1, 2]\n"
        ))
        .unwrap_err();
        for k in SchedulerKind::ALL {
            assert!(
                err.message.contains(k.name()),
                "missing {}: {err}",
                k.name()
            );
        }
    }

    #[test]
    fn malformed_latency_and_recover_stanzas_are_rejected() {
        let base = "[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"flood\"\n[faults]\nseed = 1\n";
        for (stanza, needle) in [
            ("outage = [0, 1, 2]", "outage needs [a, b"),
            (
                "outage = [0, 1, 10, 5]",
                "outage needs until_round > from_round",
            ),
            (
                "outage = [0, 1, 5, 5]",
                "outage needs until_round > from_round",
            ),
            ("latency = [0, 1]", "latency needs"),
            ("latency = [0, 1, 0]", "delay must be positive"),
            ("recover = [3, 4]", "recover needs"),
            ("recover = [3, 9, 9]", "recover_round > round"),
            // A retired fault key is an error, not a silent no-op.
            ("byzantine = [2, 0, 6]", "unknown key \"byzantine\""),
            ("drop = 1.5", "must be a number in [0, 1]"),
            ("drop = inf", "must be a number in [0, 1]"),
            ("drop = nan", "must be a number in [0, 1]"),
            ("drop = -0.5", "must be a number in [0, 1]"),
            // `base` already sets the fault seed.
            ("seed = 2", "duplicate key `seed`"),
            ("drop = 0.1\ndrop = 0.2", "duplicate key `drop`"),
            ("adversary = 1\nadversary = 2", "duplicate key `adversary`"),
        ] {
            let err = ScenarioSpec::parse_many(&format!("{base}{stanza}\n")).unwrap_err();
            assert!(err.message.contains(needle), "{stanza}: {err}");
        }
        // The entry stanzas add one entry per line, so they repeat freely.
        let entries = "outage = [0, 1, 2, 10]\noutage = [2, 3, 0, 4]\n\
                       latency = [4, 5, 3]\nlatency = [5, 6, 2]\n\
                       crash = [3, 4]\ncrash = [7, 1]\n\
                       recover = [6, 2, 9]\nrecover = [8, 1, 3]\n";
        let faults = &ScenarioSpec::parse_many(&format!("{base}{entries}")).unwrap()[0].faults;
        assert_eq!(faults.outages().len(), 2);
        assert_eq!(faults.latencies().len(), 2);
        assert_eq!(faults.crashes().len(), 4);
    }

    #[test]
    fn unknown_protocol_errors_list_the_registry() {
        // A retired protocol name is unknown like any other.
        for name in ["flood-3000", "flood-bft"] {
            let bad =
                format!("[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"{name}\"\n");
            let err = ScenarioSpec::parse_many(&bad).unwrap_err();
            assert!(
                err.message
                    .contains(&format!("unknown protocol \"{name}\"")),
                "{err}"
            );
            for p in ALL_PROTOCOLS {
                assert!(
                    err.message.contains(p.name()),
                    "missing {}: {err}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn parses_multiple_scenarios_with_comments() {
        let text = r##"
# a comment
[scenario]
name = "a"          # trailing comment
topology = "torus"
protocol = "ghs-le"
sizes = [16]

[scenario]
name = "b"
topology = "expander"
degree = 6
protocol = "flood"
seeds = [4, 5]

[faults]
seed = 2
crash = [0, 1]
"##;
        let specs = ScenarioSpec::parse_many(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "a");
        assert_eq!(specs[0].topology, Family::Torus);
        assert_eq!(specs[0].protocol, ProtocolKind::GhsLe);
        assert!(specs[0].faults.is_empty());
        assert_eq!(specs[1].topology, Family::RandomRegular { degree: 6 });
        assert_eq!(specs[1].seeds, vec![4, 5]);
        assert_eq!(specs[1].faults.crashes().len(), 1);
    }

    #[test]
    fn errors_name_the_line() {
        let bad = "[scenario]\nname = \"x\"\ntopology = \"moebius\"\nprotocol = \"flood\"\n";
        let err = ScenarioSpec::parse_many(bad).unwrap_err();
        assert!(err.message.contains("moebius"), "{err}");
        let bad = "[scenario]\nname = unquoted\n";
        let err = ScenarioSpec::parse_many(bad).unwrap_err();
        assert_eq!(err.line, 2);
        let bad = "[faults]\nseed = 1\n";
        assert!(ScenarioSpec::parse_many(bad).is_err());
        let bad = "[scenario]\nname = \"x\"\nprotocol = \"flood\"\n";
        let err = ScenarioSpec::parse_many(bad).unwrap_err();
        assert!(err.message.contains("missing `topology`"), "{err}");
    }

    #[test]
    fn explicitly_empty_values_are_rejected_not_defaulted() {
        let base = "[scenario]\nname = \"x\"\ntopology = \"cycle\"\nprotocol = \"flood\"\n";
        for (key, needle) in [
            ("sizes = []", "`sizes` is empty"),
            ("seeds = []", "`seeds` is empty"),
            ("max_rounds = 0", "`max_rounds` must be positive"),
            ("degree = 0", "`degree` must be positive"),
            ("degree = 6", "`degree` needs topology \"expander\""),
            // Rounds run on one thread, so no other shard count is honoured.
            ("shards = 4", "`shards` must be 0 or 1"),
            // A second line for a single-valued key is an error on that
            // line, not a silent override (`base` sets the first three).
            ("name = \"y\"", "duplicate key `name`"),
            ("topology = \"torus\"", "duplicate key `topology`"),
            ("protocol = \"ghs-le\"", "duplicate key `protocol`"),
            ("degree = 4\ndegree = 6", "duplicate key `degree`"),
            ("sizes = [8]\nsizes = [16]", "duplicate key `sizes`"),
            ("seeds = [1]\nseeds = [2]", "duplicate key `seeds`"),
            ("shards = 1\nshards = 4", "duplicate key `shards`"),
            ("max_rounds = 9\nmax_rounds = 90", "duplicate key `max_rounds`"),
            ("mode = \"event\"\nmode = \"round\"", "duplicate key `mode`"),
            (
                "mode = \"event\"\nscheduler = [\"worst-case\", 2, 0]\nscheduler = [\"worst-case\", 3, 0]",
                "duplicate key `scheduler`",
            ),
        ] {
            let err = ScenarioSpec::parse_many(&format!("{base}{key}\n")).unwrap_err();
            assert!(err.message.contains(needle), "{key}: {err}");
            if needle.starts_with("duplicate") {
                assert_eq!(err.line, 4 + key.lines().count(), "{key}: {err}");
            }
        }
        // Absent keys still fall back to the builder defaults.
        let specs = ScenarioSpec::parse_many(base).unwrap();
        assert_eq!(specs[0].sizes, vec![32]);
        assert_eq!(specs[0].seeds, vec![1]);
        assert_eq!(specs[0].max_rounds, 100_000);
        // The inert `shards` key parses at 0 or 1 and changes nothing.
        for key in ["shards = 0", "shards = 1"] {
            let parsed = ScenarioSpec::parse_many(&format!("{base}{key}\n")).unwrap();
            assert_eq!(parsed, specs, "{key}");
        }
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let text = "[scenario]\nname = \"a#b\"\ntopology = \"cycle\"\nprotocol = \"flood\"\n";
        let specs = ScenarioSpec::parse_many(text).unwrap();
        assert_eq!(specs[0].name, "a#b");
    }
}
