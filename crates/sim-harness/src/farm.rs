//! The batch-execution farm: one global cell queue, work-stealing
//! scheduling, content-addressed caching, and streaming cell-ordered
//! output.
//!
//! [`run_farm`] is the execution path everything in the harness now funnels
//! through. It takes an already-expanded cell list (from one spec file or a
//! whole directory sweep), consults the [`CellCache`] when one is
//! configured, and schedules the remaining misses across the workspace
//! `rayon` pool with **dynamic chunk claiming** — workers grab small index
//! ranges off a shared cursor instead of receiving one fixed static split,
//! so a directory of wildly uneven specs keeps every worker busy until the
//! queue drains.
//!
//! Scheduling freedom never leaks into output: completed cells pass through
//! a cell-ordered emitter that releases them to the [`FarmSink`] strictly
//! in matrix order, holding back at most the out-of-order suffix. Results
//! and traces are therefore byte-identical for every worker count and every
//! hit/miss pattern, and a sink that writes lines incrementally gives the
//! whole farm O(1 cell) memory — nothing buffers the full run.
//!
//! Cache bookkeeping (hits, misses, stores, rejected entries) is decided
//! against the cache's **pre-run state** in a sequential scan before any
//! cell executes, so the [`FarmReport`] is as deterministic as the results
//! themselves: a warm rerun reports the same numbers at every worker count.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cache::CellCache;
use crate::engine::{run_cell_with, Cell, CellResult};

/// Receives completed cells **in cell order** as the farm finishes them.
///
/// Implementations stream: a sink that writes each cell's table row and
/// trace block to disk as it arrives keeps the farm's memory bounded by the
/// out-of-order suffix, not the sweep size. Sink errors are reported from
/// [`run_farm`] after the batch drains (execution itself never blocks on a
/// broken sink).
pub trait FarmSink: Send {
    /// Called once before any cell.
    ///
    /// # Errors
    ///
    /// An error here aborts the farm before any cell executes.
    fn on_start(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Called once per successful cell, in cell order. Cache hits carry no
    /// telemetry and a zero wall clock.
    ///
    /// # Errors
    ///
    /// The first sink error is reported from [`run_farm`]; later cells
    /// still execute (and still populate the cache) but are no longer
    /// delivered.
    fn on_cell(&mut self, index: usize, result: CellResult) -> Result<(), String>;
}

/// How the farm runs a batch.
#[derive(Debug, Clone, Default)]
pub struct FarmOptions {
    /// Pin telemetry on for every executed cell. Telemetry carries wall
    /// clocks, which live outside the determinism domain — so a telemetry
    /// run **bypasses the cache entirely** (no lookups, no stores) rather
    /// than serve a sidecar-free cached result to a profiler.
    pub telemetry: bool,
    /// The cache directory (`None` = no caching).
    pub cache_dir: Option<PathBuf>,
}

/// What a farm run did: cache bookkeeping plus per-entry diagnostics.
///
/// All counters are decided against the cache's pre-run state, so the
/// report is deterministic across worker counts and reruns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmReport {
    /// Cells in the matrix.
    pub cells: usize,
    /// Cells served from the cache without executing.
    pub hits: usize,
    /// Cells that executed (no entry, rejected entry, or no cache at all).
    pub misses: usize,
    /// Entries successfully persisted this run.
    pub stores: usize,
    /// Per-entry diagnostics: entries rejected at lookup (foreign version,
    /// corruption, truncation, key mismatch — each re-executed and
    /// overwritten) and entries that failed to persist. Never fatal.
    pub rejected: Vec<String>,
}

impl FarmReport {
    /// Cache hit rate in percent (`100.0` for an empty matrix: nothing
    /// needed executing).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            100.0
        } else {
            self.hits as f64 * 100.0 / self.cells as f64
        }
    }

    /// The greppable `key = value` stats block (`cache-stats.txt`, and what
    /// CI asserts `hit rate = 100.0%` against on warm passes).
    #[must_use]
    pub fn stats_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "cells = {}", self.cells).unwrap();
        writeln!(out, "hits = {}", self.hits).unwrap();
        writeln!(out, "misses = {}", self.misses).unwrap();
        writeln!(out, "stores = {}", self.stores).unwrap();
        writeln!(out, "rejected = {}", self.rejected.len()).unwrap();
        writeln!(out, "hit rate = {:.1}%", self.hit_rate()).unwrap();
        for diag in &self.rejected {
            writeln!(out, "# {diag}").unwrap();
        }
        out
    }
}

/// A completed-but-not-yet-released cell slot in the emitter.
enum Slot {
    /// Not finished yet.
    Empty,
    /// Finished; waiting for every earlier cell to be released first.
    Ready(Box<CellResult>),
    /// Failed; its error is recorded separately, the slot just unblocks the
    /// in-order release of later cells.
    Failed,
}

/// The cell-ordered release valve between the work-stealing workers and the
/// sink: completions land at their index, and the longest finished prefix
/// flushes to the sink immediately.
struct Emitter<'s> {
    sink: &'s mut dyn FarmSink,
    slots: Vec<Slot>,
    next: usize,
    failures: Vec<(usize, String)>,
    sink_error: Option<String>,
}

impl Emitter<'_> {
    fn complete(&mut self, index: usize, done: Result<Box<CellResult>, String>) {
        self.slots[index] = match done {
            Ok(result) => Slot::Ready(result),
            Err(e) => {
                self.failures.push((index, e));
                Slot::Failed
            }
        };
        self.flush();
    }

    fn flush(&mut self) {
        while self.next < self.slots.len() {
            match std::mem::replace(&mut self.slots[self.next], Slot::Empty) {
                Slot::Empty => break,
                Slot::Ready(result) => {
                    if self.sink_error.is_none() {
                        if let Err(e) = self.sink.on_cell(self.next, *result) {
                            self.sink_error = Some(e);
                        }
                    }
                    self.next += 1;
                }
                Slot::Failed => self.next += 1,
            }
        }
    }
}

/// Runs a cell batch through the farm: sequential cache scan, work-stealing
/// execution of the misses, cell-ordered streaming to `sink`.
///
/// # Errors
///
/// Returns, in cell order, **every** failing cell's rendered error (one per
/// line — not just the lowest-indexed one), or the first sink error. Cache
/// trouble is never fatal: rejected or unwritable entries are diagnosed in
/// the report and the cells simply execute.
pub fn run_farm(
    cells: &[Cell],
    opts: &FarmOptions,
    sink: &mut dyn FarmSink,
) -> Result<FarmReport, String> {
    let cache = match (&opts.cache_dir, opts.telemetry) {
        (Some(dir), false) => Some(CellCache::open(dir)?),
        _ => None,
    };
    sink.on_start()?;
    let mut report = FarmReport {
        cells: cells.len(),
        ..FarmReport::default()
    };
    let mut emitter = Emitter {
        sink,
        slots: (0..cells.len()).map(|_| Slot::Empty).collect(),
        next: 0,
        failures: Vec::new(),
        sink_error: None,
    };
    // Phase 1 — decide every hit/miss against the pre-run cache state, so
    // the report (and which cells execute) is deterministic even when one
    // run contains duplicate cells.
    let mut todo: Vec<usize> = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match cache.as_ref().map(|c| c.lookup(cell)) {
            Some(Ok(Some(result))) => {
                report.hits += 1;
                emitter.slots[index] = Slot::Ready(Box::new(result));
            }
            Some(Err(diag)) => {
                report.misses += 1;
                report.rejected.push(diag);
                todo.push(index);
            }
            Some(Ok(None)) | None => {
                report.misses += 1;
                todo.push(index);
            }
        }
    }
    // Stream the leading hits before any execution starts.
    emitter.flush();
    // Phase 2 — execute the misses with dynamic chunk claiming.
    let stores = AtomicUsize::new(0);
    let store_diags: Mutex<Vec<String>> = Mutex::new(Vec::new());
    if !todo.is_empty() {
        let workers = rayon::current_num_threads().clamp(1, todo.len());
        // Small chunks keep the queue stealable when cell costs are uneven
        // (the whole point of the global queue); the floor of 1 and cap of
        // 32 bound claim overhead on tiny and huge sweeps respectively.
        let chunk = (todo.len() / (workers * 4)).clamp(1, 32);
        let cursor = AtomicUsize::new(0);
        let emitter_mx = Mutex::new(&mut emitter);
        let (todo, cache, stores, store_diags) = (&todo, cache.as_ref(), &stores, &store_diags);
        let (cursor, emitter_mx) = (&cursor, &emitter_mx);
        let telemetry = opts.telemetry;
        let mut tasks: Vec<_> = (0..workers)
            .map(|_| {
                move || loop {
                    let at = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if at >= todo.len() {
                        break;
                    }
                    for &index in &todo[at..todo.len().min(at + chunk)] {
                        let done = run_cell_with(&cells[index], telemetry);
                        if let (Some(cache), Ok(result)) = (cache, &done) {
                            match cache.store(index, result) {
                                Ok(()) => {
                                    stores.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(diag) => store_diags.lock().unwrap().push(diag),
                            }
                        }
                        let done = done.map(Box::new);
                        emitter_mx.lock().unwrap().complete(index, done);
                    }
                }
            })
            .collect();
        rayon::pool::global().scope_execute_batch(&mut tasks);
    }
    report.stores = stores.into_inner();
    let mut store_diags = store_diags.into_inner().unwrap();
    store_diags.sort();
    report.rejected.extend(store_diags);
    emitter.failures.sort_by_key(|&(index, _)| index);
    if !emitter.failures.is_empty() {
        let lines: Vec<String> = emitter.failures.into_iter().map(|(_, e)| e).collect();
        return Err(lines.join("\n"));
    }
    if let Some(e) = emitter.sink_error {
        return Err(e);
    }
    Ok(report)
}

/// A [`FarmSink`] that collects results into a `Vec` (cell order).
struct CollectSink(Vec<CellResult>);

impl FarmSink for CollectSink {
    fn on_cell(&mut self, _index: usize, result: CellResult) -> Result<(), String> {
        self.0.push(result);
        Ok(())
    }
}

/// [`run_farm`] with a collecting sink: returns the full cell-ordered
/// result list next to the report. The convenience path `run_cells` and
/// friends use; prefer a streaming sink for large sweeps.
///
/// # Errors
///
/// Same as [`run_farm`].
pub fn run_cells_collect(
    cells: &[Cell],
    opts: &FarmOptions,
) -> Result<(Vec<CellResult>, FarmReport), String> {
    let mut sink = CollectSink(Vec::with_capacity(cells.len()));
    let report = run_farm(cells, opts, &mut sink)?;
    Ok((sink.0, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{expand, run_cells};
    use crate::registry::ProtocolKind;
    use crate::spec::ScenarioSpec;
    use congest_net::topology::Family;

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("farm-flood", Family::Cycle, ProtocolKind::Flood)
                .sizes([12, 16, 20])
                .seeds([1, 2])
                .max_rounds(500),
            ScenarioSpec::new("farm-ghs", Family::Torus, ProtocolKind::GhsLe).sizes([16]),
        ]
    }

    #[test]
    fn farm_matches_run_cells_and_streams_in_order() {
        let cells = expand(&specs());
        let baseline = run_cells(&cells).unwrap();
        struct OrderSink {
            seen: Vec<usize>,
            results: Vec<CellResult>,
        }
        impl FarmSink for OrderSink {
            fn on_cell(&mut self, index: usize, result: CellResult) -> Result<(), String> {
                self.seen.push(index);
                self.results.push(result);
                Ok(())
            }
        }
        let mut sink = OrderSink {
            seen: Vec::new(),
            results: Vec::new(),
        };
        let report = run_farm(&cells, &FarmOptions::default(), &mut sink).unwrap();
        assert_eq!(sink.seen, (0..cells.len()).collect::<Vec<_>>());
        assert_eq!(sink.results, baseline);
        assert_eq!(report.cells, cells.len());
        assert_eq!(report.hits, 0);
        assert_eq!(report.misses, cells.len());
        assert_eq!(report.stores, 0);
    }

    #[test]
    fn empty_matrix_is_a_complete_report() {
        let (results, report) = run_cells_collect(&[], &FarmOptions::default()).unwrap();
        assert!(results.is_empty());
        assert!((report.hit_rate() - 100.0).abs() < f64::EPSILON);
        assert!(report.stats_text().contains("cells = 0"));
    }

    #[test]
    fn sink_errors_surface_after_the_batch() {
        struct FailingSink;
        impl FarmSink for FailingSink {
            fn on_cell(&mut self, _: usize, _: CellResult) -> Result<(), String> {
                Err("sink full".into())
            }
        }
        let cells = expand(&specs());
        let err = run_farm(&cells, &FarmOptions::default(), &mut FailingSink).unwrap_err();
        assert_eq!(err, "sink full");
    }
}
