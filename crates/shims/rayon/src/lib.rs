//! Offline stand-in for the small part of `rayon` this workspace uses: a
//! **persistent worker pool** ([`pool`]) spawned once per process, which
//! runs a batch of borrowed closures to completion
//! ([`ThreadPool::scope_execute_batch`]).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim instead. One caller dispatches through the pool: the
//! scenario farm in `sim-harness`, one batch of cell workers per matrix. It
//! keeps its output independent of thread scheduling by sorting results
//! back into matrix order. The only `unsafe` in the shim is the scoped lifetime
//! erasure inside [`pool`], with the soundness argument documented there.

#![deny(unsafe_code)]

pub mod pool;

pub use pool::ThreadPool;

/// Number of worker threads used for parallel execution (the persistent
/// pool's size: `RAYON_NUM_THREADS` if set, otherwise the available
/// parallelism).
#[must_use]
pub fn current_num_threads() -> usize {
    pool::global().thread_count()
}

#[cfg(test)]
mod tests {
    use super::pool;

    #[test]
    fn empty_and_singleton_inputs() {
        let mut empty: Vec<fn()> = Vec::new();
        pool::global().scope_execute_batch(&mut empty);
        // A singleton batch runs inline on the calling thread.
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool::global().scope_execute_batch(&mut [|| ran_on = Some(std::thread::current().id())]);
        assert_eq!(ran_on, Some(caller));
    }
}
