//! The batch-execution farm: one global cell queue, work-stealing
//! scheduling, and results returned in cell order.
//!
//! Every matrix run funnels through one crate-private function: an
//! already-expanded cell list (from one spec file or a whole directory
//! sweep) is scheduled across the workspace `rayon` pool with **dynamic
//! chunk claiming** — workers grab small index ranges off a shared cursor
//! instead of receiving one fixed static split, so a directory of wildly
//! uneven specs keeps every worker busy until the queue drains.
//!
//! Scheduling freedom never leaks into output: workers collect
//! `(index, result)` pairs as cells complete, and the farm sorts them back
//! into cell order before anyone sees them. Results and traces are
//! therefore byte-identical for every worker count, and a failing cell
//! never hides the ones behind it: every failure is reported, one per
//! line, in cell order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{run_cell_with, Cell, CellResult};

/// How [`run_cells_collect`] runs a batch.
#[derive(Debug, Clone, Default)]
pub struct FarmOptions {
    /// Pin telemetry on for every cell (see [`run_cell_with`]).
    pub telemetry: bool,
    /// Ignored: every cell executes. A cell is a pure function of its
    /// stanza, so no stored result could differ from a rerun. The field
    /// stays so that callers which still set it keep building.
    pub cache_dir: Option<PathBuf>,
}

/// [`crate::run_cells_with`] under a [`FarmOptions`]: the cell-ordered
/// results, next to an empty slot that callers which still destructure a
/// pair keep building against.
///
/// # Errors
///
/// Same as [`crate::run_cells`].
pub fn run_cells_collect(
    cells: &[Cell],
    opts: &FarmOptions,
) -> Result<(Vec<CellResult>, ()), String> {
    Ok((run_farm(cells, opts.telemetry)?, ()))
}

/// Runs `cells` across the pool with dynamic chunk claiming and returns
/// their results in cell order.
///
/// # Errors
///
/// Returns **every** failing cell's rendered error, one per line, in cell
/// order.
pub(crate) fn run_farm(cells: &[Cell], telemetry: bool) -> Result<Vec<CellResult>, String> {
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let workers = rayon::current_num_threads().clamp(1, cells.len());
    // Small chunks keep the queue stealable when cell costs are uneven
    // (the whole point of the global queue); the floor of 1 and cap of 32
    // bound claim overhead on tiny and huge sweeps respectively.
    let chunk = (cells.len() / (workers * 4)).clamp(1, 32);
    let cursor = AtomicUsize::new(0);
    // Results land here in completion order, which depends on scheduling.
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    let mut tasks: Vec<_> = (0..workers)
        .map(|_| {
            || loop {
                let at = cursor.fetch_add(chunk, Ordering::Relaxed);
                if at >= cells.len() {
                    break;
                }
                for (index, cell) in cells.iter().enumerate().skip(at).take(chunk) {
                    let result = run_cell_with(cell, telemetry);
                    done.lock()
                        .expect("no worker panics while holding the lock")
                        .push((index, result));
                }
            }
        })
        .collect();
    rayon::pool::global().scope_execute_batch(&mut tasks);
    let mut done = done
        .into_inner()
        .expect("no worker panics while holding the lock");
    done.sort_unstable_by_key(|&(index, _)| index);
    let mut results = Vec::with_capacity(cells.len());
    let mut failures = Vec::new();
    for (_, result) in done {
        match result {
            Ok(result) => results.push(result),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::expand;
    use crate::registry::ProtocolKind;
    use crate::spec::ScenarioSpec;
    use congest_net::topology::Family;

    #[test]
    fn farm_matches_a_sequential_run_when_cells_finish_out_of_order() {
        // The torus cell takes far longer than the six floods behind it, so
        // on a pool of two or more workers they complete before it does.
        let cells = expand(&[
            ScenarioSpec::new("farm-ghs", Family::Torus, ProtocolKind::GhsLe).sizes([4096]),
            ScenarioSpec::new("farm-flood", Family::Cycle, ProtocolKind::Flood)
                .sizes([16])
                .seeds([1, 2, 3, 4, 5, 6])
                .max_rounds(500),
        ]);
        let sequential: Vec<CellResult> = cells
            .iter()
            .map(|cell| run_cell_with(cell, false))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(run_farm(&cells, false).unwrap(), sequential);
    }

    #[test]
    fn empty_matrix_is_a_complete_report() {
        assert_eq!(run_farm(&[], false), Ok(Vec::new()));
    }
}
