//! Offline stand-in for the small part of `rayon` this workspace uses: a
//! **persistent worker pool** ([`pool`]) spawned once per process, which
//! runs a batch of borrowed closures to completion
//! ([`ThreadPool::scope_execute_batch`]).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim instead. Two callers dispatch through the pool: the
//! sharded round engine in `congest-net` (one batch per simulated round, so
//! a dispatch costs a queue push instead of an OS thread spawn) and the
//! scenario farm in `sim-harness` (one batch of cell workers per matrix,
//! nested when a cell itself runs sharded). Both keep their output
//! independent of thread scheduling on their own side: shard tasks write
//! disjoint slots that merge in shard order, and the farm emits cells in
//! matrix order. The only `unsafe` in the shim is the scoped lifetime
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
