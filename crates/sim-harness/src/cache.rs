//! The content-addressed cell cache.
//!
//! The simulator's byte-identical determinism invariant is what makes cell
//! results cacheable at all: a cell is a pure function of its canonical
//! spec stanza (protocol, topology, size, seed, round budget, execution
//! mode/scheduler, fault plan) and of the code that runs it, so the
//! scenario name, the telemetry sidecar, and wall clocks deliberately never
//! enter the key. Hashing that stanza together
//! with a code fingerprint (crate version plus a build id derived from the
//! simulator sources at compile time, see `build.rs`) yields a sound cache
//! key: two cells with equal keys replay byte-for-byte, so serving the
//! stored metrics/events *is* the replay.
//!
//! Entries are one file per key under the cache directory, in a versioned
//! line-oriented format that reuses the trace module's `summary`/`event`
//! grammar. Like trace baselines, an entry from a different format version
//! is **rejected by name** ("this build reads cache v1"); a corrupt,
//! truncated, or colliding entry is likewise a diagnosed miss — never a
//! panic, and never a silent stale hit, because the entry embeds its full
//! key material and the material is compared verbatim on every lookup.
//!
//! What is hashed, and what deliberately is not, is documented for spec
//! authors in `docs/SCENARIO_FORMAT.md`.

use std::path::PathBuf;

use congest_net::ExecMode;

use crate::engine::{Cell, CellResult};
use crate::registry::{topology_name, CellOutcome};
use crate::spec::write_fault_stanzas;
use crate::trace;

/// The entry format version this build reads and writes. Bump it whenever
/// the entry grammar changes; old entries are then rejected by name and
/// re-recorded as misses.
pub const CACHE_FORMAT: &str = "v1";

/// The version line every cache entry starts with.
const VERSION_PREFIX: &str = "# sim-harness cache ";

/// The code fingerprint baked into every cache key: the crate version plus
/// the build id `build.rs` derives from the sources of every crate a cell's
/// result depends on. Any source change rolls this value, so a cache
/// directory can never serve results computed by different code.
#[must_use]
pub fn code_fingerprint() -> &'static str {
    concat!(env!("CARGO_PKG_VERSION"), "-", env!("CONGEST_BUILD_ID"))
}

/// FNV-1a over `bytes` (the same hand-rolled hash the build script uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The canonical key material of a cell: the code fingerprint plus the
/// cell's spec stanza rendered in the `.scn` grammar (one key per line, the
/// fault plan in entry order via the spec module's shared renderer).
///
/// Deliberately absent — and therefore shared across —:
///
/// * the **scenario name** (two differently-named sweeps containing the
///   same cell share one entry);
/// * **telemetry and wall clocks** (observation never changes execution).
#[must_use]
pub fn cache_key_material(cell: &Cell) -> String {
    use std::fmt::Write;
    let mut out = String::from("# cell cache key material\n");
    writeln!(out, "fingerprint = \"{}\"", code_fingerprint()).unwrap();
    writeln!(out, "protocol = \"{}\"", cell.protocol.name()).unwrap();
    writeln!(out, "topology = \"{}\"", topology_name(cell.topology)).unwrap();
    if let congest_net::topology::Family::RandomRegular { degree } = cell.topology {
        writeln!(out, "degree = {degree}").unwrap();
    }
    writeln!(out, "n = {}", cell.n).unwrap();
    writeln!(out, "seed = {}", cell.seed).unwrap();
    writeln!(out, "max_rounds = {}", cell.max_rounds).unwrap();
    match cell.mode {
        ExecMode::Round => writeln!(out, "mode = \"round\"").unwrap(),
        ExecMode::Event(sched) => {
            // The scheduler stanza is always rendered in event mode (even
            // for the synchronous default), so a round cell and its
            // event-mode twin can never collide.
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
    }
    if !cell.faults.is_empty() || cell.faults.seed() != 0 {
        out.push_str("[faults]\n");
        write_fault_stanzas(&cell.faults, &mut out);
    }
    out
}

/// The content-addressed cache key of a cell: the FNV-1a hash of its
/// [`cache_key_material`], rendered as 16 hex digits (also the entry's file
/// name). Lookups verify the stored material verbatim, so a hash collision
/// degrades to a diagnosed miss, never a wrong result.
#[must_use]
pub fn cache_key(cell: &Cell) -> String {
    format!("{:016x}", fnv1a(cache_key_material(cell).as_bytes()))
}

/// A directory of cached cell results, one versioned entry file per key.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        Ok(CellCache { dir })
    }

    /// The entry file a cell's result lives in (exists only after a store).
    #[must_use]
    pub fn entry_path(&self, cell: &Cell) -> PathBuf {
        self.dir.join(format!("{}.cell", cache_key(cell)))
    }

    /// Looks the cell up: `Ok(Some(_))` is a hit, `Ok(None)` a clean miss
    /// (no entry recorded), and `Err(_)` a *diagnosed* miss — the entry
    /// exists but is unusable (foreign format version, corruption,
    /// truncation, or key-material mismatch), with the diagnostic naming
    /// the file and the reason. Callers re-execute and overwrite on `Err`.
    ///
    /// # Errors
    ///
    /// See above: every `Err` is a recoverable per-entry diagnostic.
    pub fn lookup(&self, cell: &Cell) -> Result<Option<CellResult>, String> {
        let path = self.entry_path(cell);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cache entry {}: {e}", path.display())),
        };
        parse_entry(&text, cell)
            .map(Some)
            .map_err(|e| format!("cache entry {}: {e}", path.display()))
    }

    /// Persists one executed cell's result under its key. `index` is the
    /// cell's position in the running matrix; it only disambiguates the
    /// temporary file two workers storing duplicate cells would otherwise
    /// share (the final rename is last-writer-wins over identical bytes).
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the entry cannot be written; callers
    /// treat it as a non-fatal diagnostic (the run itself already
    /// succeeded).
    pub fn store(&self, index: usize, result: &CellResult) -> Result<(), String> {
        let path = self.entry_path(&result.cell);
        let tmp = self
            .dir
            .join(format!("{}.{index}.tmp", cache_key(&result.cell)));
        std::fs::write(&tmp, serialize_entry(result))
            .map_err(|e| format!("cache entry {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("cache entry {}: {e}", path.display()))
    }
}

/// Renders one entry file: version line, key, the full key material (`| `
/// prefixed), then the cell's outcome in the trace module's grammar plus a
/// `detail` line, closed by an `end` marker (its absence = truncation).
#[must_use]
pub fn serialize_entry(result: &CellResult) -> String {
    use std::fmt::Write;
    let mut out = format!("{VERSION_PREFIX}{CACHE_FORMAT}\n");
    writeln!(out, "key {}", cache_key(&result.cell)).unwrap();
    for line in cache_key_material(&result.cell).lines() {
        writeln!(out, "| {line}").unwrap();
    }
    trace::write_summary(
        &mut out,
        &result.outcome.metrics,
        result.outcome.effective_rounds,
        result.outcome.ok,
    );
    writeln!(out, "detail {}", result.outcome.detail).unwrap();
    trace::write_events(&mut out, &result.outcome.trace);
    out.push_str("end\n");
    out
}

/// Parses an entry back into the cell's result, verifying the stored key
/// material verbatim against the live cell's.
fn parse_entry(text: &str, cell: &Cell) -> Result<CellResult, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty cache entry")?;
    let version = first
        .strip_prefix(VERSION_PREFIX)
        .ok_or("missing cache version line")?;
    if version != CACHE_FORMAT {
        return Err(format!(
            "unsupported cache format {version} (this build reads {CACHE_FORMAT}; \
             the entry is from another build and is re-recorded as a miss)"
        ));
    }
    let mut stored_key: Option<&str> = None;
    let mut material = String::new();
    let mut summary: Option<(congest_net::Metrics, u64, bool)> = None;
    let mut detail: Option<String> = None;
    let mut events = Vec::new();
    let mut ended = false;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if ended {
            return Err(format!("line {line_no}: content after end marker"));
        }
        if let Some(key) = line.strip_prefix("key ") {
            stored_key = Some(key);
        } else if let Some(mat) = line.strip_prefix("| ") {
            material.push_str(mat);
            material.push('\n');
        } else if let Some(rest) = line.strip_prefix("summary ") {
            summary = Some(trace::parse_summary(rest, line_no)?);
        } else if let Some(rest) = line.strip_prefix("detail ") {
            detail = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("event ") {
            events.push(trace::parse_event(rest, line_no)?);
        } else if line == "end" {
            ended = true;
        } else {
            return Err(format!("line {line_no}: unrecognised line \"{line}\""));
        }
    }
    if !ended {
        return Err("truncated entry (missing end marker)".into());
    }
    let expected_key = cache_key(cell);
    if stored_key != Some(expected_key.as_str()) {
        return Err(format!(
            "key mismatch (entry {}, expected {expected_key})",
            stored_key.unwrap_or("<missing>")
        ));
    }
    if material != cache_key_material(cell) {
        // Either an FNV collision or an entry copied between builds by
        // hand; both degrade to a miss instead of a wrong result.
        return Err("key material mismatch (colliding or foreign entry)".into());
    }
    let (metrics, effective_rounds, ok) = summary.ok_or("entry is missing its summary line")?;
    Ok(CellResult {
        cell: cell.clone(),
        outcome: CellOutcome {
            metrics,
            effective_rounds,
            ok,
            detail: detail.ok_or("entry is missing its detail line")?,
            trace: events,
            telemetry: None,
        },
        wall_nanos: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{expand, run_cell_with};
    use crate::registry::ProtocolKind;
    use crate::spec::ScenarioSpec;
    use congest_net::topology::Family;
    use congest_net::{FaultPlan, SchedulerSpec};

    fn sample_cell() -> Cell {
        let spec = ScenarioSpec::new("unit", Family::Cycle, ProtocolKind::Flood)
            .sizes([16])
            .seeds([3])
            .max_rounds(400)
            .faults(FaultPlan::new(7).drop_probability(0.05).crash(3, 2));
        expand(&[spec]).remove(0)
    }

    #[test]
    fn entry_round_trips_through_the_line_format() {
        let cell = sample_cell();
        let result = run_cell_with(&cell, false).unwrap();
        let parsed = parse_entry(&serialize_entry(&result), &cell).unwrap();
        assert_eq!(parsed, result);
    }

    #[test]
    fn key_ignores_name_but_not_the_stanza() {
        let cell = sample_cell();
        let mut renamed = cell.clone();
        renamed.scenario = "other-name".into();
        assert_eq!(cache_key(&cell), cache_key(&renamed));
        let mut other_seed = cell.clone();
        other_seed.seed += 1;
        assert_ne!(cache_key(&cell), cache_key(&other_seed));
        let mut event = cell.clone();
        event.mode = congest_net::ExecMode::Event(SchedulerSpec::synchronous());
        assert_ne!(cache_key(&cell), cache_key(&event));
    }

    #[test]
    fn material_names_the_fingerprint() {
        let material = cache_key_material(&sample_cell());
        assert!(material.contains(code_fingerprint()), "{material}");
        assert!(material.contains("[faults]"), "{material}");
    }

    #[test]
    fn version_bumped_entries_are_rejected_by_name() {
        let cell = sample_cell();
        let result = run_cell_with(&cell, false).unwrap();
        let bumped = serialize_entry(&result).replace(
            &format!("{VERSION_PREFIX}{CACHE_FORMAT}"),
            &format!("{VERSION_PREFIX}v99"),
        );
        let err = parse_entry(&bumped, &cell).unwrap_err();
        assert!(err.contains("unsupported cache format v99"), "{err}");
        assert!(err.contains("this build reads v1"), "{err}");
    }
}
